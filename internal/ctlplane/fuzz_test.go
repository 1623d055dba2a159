package ctlplane

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ava/internal/failover"
	"ava/internal/sched"
)

// FuzzCtlHandlers drives the route table with an arbitrary method, path,
// query and token header over a Config whose hooks only count their
// invocations. Whatever arrives: no handler panics, a POST without the
// configured token never reaches a hook, and a GET never answers 5xx. The
// checked-in corpus (testdata/fuzz) holds every route with and without
// the token, malformed vm parameters, unknown paths and odd methods.
func FuzzCtlHandlers(f *testing.F) {
	const token = "sesame"
	var actions atomic.Int64 // POST hooks reached
	act := func() error { actions.Add(1); return nil }
	h := New(Config{
		Token:      token,
		Drain:      act,
		Checkpoint: func(uint32) error { return act() },
		Migrate:    func(uint32, string) error { return act() },
		Rebalance:  func() (int, error) { return 0, act() },
		Sched:      func() []sched.Decision { return nil },
		Mirror:     func() []failover.MirroredVM { return nil },
	}).Handler()
	f.Fuzz(func(t *testing.T, method, path, query, tokenHeader, bearer string) {
		req, err := http.NewRequest(method, "http://ctl/", nil)
		if err != nil {
			return // not a method net/http would ever parse off the wire
		}
		req.URL.Path, req.URL.RawQuery = "/"+path, query
		if tokenHeader != "" {
			req.Header.Set("X-Ava-Token", tokenHeader)
		}
		if bearer != "" {
			req.Header.Set("Authorization", "Bearer "+bearer)
		}
		authorized := tokenHeader == token || (tokenHeader == "" && bearer == token)
		before := actions.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if reached := actions.Load() - before; reached > 0 && (method != http.MethodPost || !authorized) {
			t.Fatalf("%s /%s?%s (token %q, bearer %q) reached %d hook(s)", method, path, query, tokenHeader, bearer, reached)
		}
		if method == http.MethodGet && rec.Code >= 500 {
			t.Fatalf("GET /%s?%s answered %d: %s", path, query, rec.Code, rec.Body)
		}
	})
}

// Package ctlplane is the operability front door for AvA processes: a
// small HTTP control/metrics endpoint embedded in avad (and the other
// daemons) that exposes the stack's internal telemetry — per-VM router
// policy counters, live server byte/queue counters, guardian checkpoint
// state, fleet membership — as JSON snapshots, plus POST actions to
// drain the process, force a checkpoint, or migrate a VM.
//
// Endpoints:
//
//	GET  /healthz               liveness probe ({"ok":true})
//	GET  /stats                 full Snapshot (all configured sections)
//	GET  /vms                   compact per-VM rows (router ⋈ server)
//	GET  /metrics               Prometheus text exposition of the Snapshot
//	GET  /sched                 scheduling decision log (placements, failovers, rebalances)
//	GET  /mirror                per-VM replication standing of a mirror host
//	POST /drain                 begin a graceful drain
//	POST /checkpoint?vm=N       checkpoint VM N now
//	POST /migrate?vm=N[&target=host]  move VM N (empty target = lightest peer)
//	POST /rebalance             trigger one rebalance evaluation now
//
// When Config.Token is set, every POST requires it — as a bearer token
// (Authorization: Bearer <token>) or in the X-Ava-Token header; a wrong
// or missing token is a CatDenied 403. GETs stay open: the metrics
// surface is meant to be scraped.
//
// Errors come back as JSON carrying the stack's categorized taxonomy
// (internal/averr): {"error", "category", "code", "status"}, where
// status is the marshal wire status the same error would travel as —
// one vocabulary across wire, logs, and this endpoint.
//
// The handlers only read snapshot-copy state and call hooks designed to
// return promptly, so a scraper polling /stats in a tight loop never
// stalls the data path.
package ctlplane

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ava/internal/averr"
	"ava/internal/failover"
	"ava/internal/marshal"
	"ava/internal/sched"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Category and Code are the averr taxonomy of the underlying error
	// (empty for errors outside it).
	Category string `json:"category,omitempty"`
	Code     string `json:"code,omitempty"`
	// Status is the marshal wire status the error maps to (StatusFor) —
	// the same classification a guest would see on the data plane.
	Status string `json:"status"`
}

// Server serves the control endpoint.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu sync.Mutex
	hs *http.Server
	l  net.Listener
}

// New builds a control-plane server over cfg. Call Start to bind it.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /vms", s.handleVMs)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /sched", s.handleSched)
	s.mux.HandleFunc("GET /mirror", s.handleMirror)
	s.mux.HandleFunc("POST /drain", s.auth(s.handleDrain))
	s.mux.HandleFunc("POST /checkpoint", s.auth(s.handleCheckpoint))
	s.mux.HandleFunc("POST /migrate", s.auth(s.handleMigrate))
	s.mux.HandleFunc("POST /rebalance", s.auth(s.handleRebalance))
	return s
}

// auth gates a mutating handler behind the shared token when one is
// configured. The comparison runs over fixed-length SHA-256 digests of
// the two tokens: ConstantTimeCompare alone short-circuits on unequal
// lengths, which would leak the configured token's length to a prober —
// hashing first makes both timing and length uniform. The token is a
// capability, not a hint.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tok := s.cfg.Token; tok != "" {
			got := r.Header.Get("X-Ava-Token")
			if got == "" {
				got = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			}
			gd, td := sha256.Sum256([]byte(got)), sha256.Sum256([]byte(tok))
			if subtle.ConstantTimeCompare(gd[:], td[:]) != 1 {
				writeErr(w, fmt.Errorf("%w: missing or wrong control token", averr.ErrDenied))
				return
			}
		}
		h(w, r)
	}
}

// Handler exposes the route table (tests drive it through httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; port 0 picks a free one) and serves in
// the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ctlplane: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.hs, s.l = hs, l
	s.mu.Unlock()
	go hs.Serve(l)
	return l.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.l == nil {
		return ""
	}
	return s.l.Addr().String()
}

// Close shuts the endpoint down, letting in-flight responses (a drain
// acknowledgement racing process exit) finish within a short grace.
func (s *Server) Close() error {
	s.mu.Lock()
	hs := s.hs
	s.hs, s.l = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return hs.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr reports err in the stack's shared taxonomy. The HTTP code
// follows the averr category, so a generic HTTP client distinguishes
// caller mistakes from process state without parsing the body.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch averr.CategoryOf(err) {
	case averr.CatArgument, averr.CatProtocol:
		code = http.StatusBadRequest
	case averr.CatRouting:
		code = http.StatusNotFound
	case averr.CatDenied:
		code = http.StatusForbidden
	case averr.CatDeadline:
		code = http.StatusGatewayTimeout
	case averr.CatCanceled:
		code = http.StatusConflict
	case averr.CatOverload:
		code = http.StatusTooManyRequests
	case averr.CatFailover:
		code = http.StatusServiceUnavailable
	case averr.CatAPI:
		code = http.StatusBadGateway
	}
	writeJSON(w, code, errorBody{
		Error:    err.Error(),
		Category: string(averr.CategoryOf(err)),
		Code:     averr.CodeOf(err),
		Status:   marshal.StatusFor(err).String(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.snapshot())
}

func (s *Server) handleVMs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.snapshot().Rows())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Drain == nil {
		writeErr(w, fmt.Errorf("%w: this process has no drain hook", averr.ErrDenied))
		return
	}
	if err := s.cfg.Drain(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

// vmParam parses the required ?vm= query parameter.
func vmParam(r *http.Request) (uint32, error) {
	raw := r.URL.Query().Get("vm")
	if raw == "" {
		return 0, fmt.Errorf("%w: missing vm parameter", averr.ErrBadArg)
	}
	vm, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: vm %q: %v", averr.ErrBadArg, raw, err)
	}
	return uint32(vm), nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Checkpoint == nil {
		writeErr(w, fmt.Errorf("%w: this process has no checkpoint hook", averr.ErrDenied))
		return
	}
	vm, err := vmParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.cfg.Checkpoint(vm); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "checkpointed", "vm": vm})
}

func (s *Server) handleSched(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Sched == nil {
		writeErr(w, fmt.Errorf("%w: this process records no scheduling decisions", averr.ErrDenied))
		return
	}
	ds := s.cfg.Sched()
	if ds == nil {
		ds = []sched.Decision{}
	}
	writeJSON(w, http.StatusOK, ds)
}

func (s *Server) handleMirror(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Mirror == nil {
		writeErr(w, fmt.Errorf("%w: this process hosts no mirror", averr.ErrDenied))
		return
	}
	ms := s.cfg.Mirror()
	if ms == nil {
		ms = []failover.MirroredVM{}
	}
	writeJSON(w, http.StatusOK, ms)
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Rebalance == nil {
		writeErr(w, fmt.Errorf("%w: this process has no rebalance hook", averr.ErrDenied))
		return
	}
	n, err := s.cfg.Rebalance()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "rebalanced", "migrations": n})
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Migrate == nil {
		writeErr(w, fmt.Errorf("%w: this process has no migrate hook", averr.ErrDenied))
		return
	}
	vm, err := vmParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	target := r.URL.Query().Get("target")
	if err := s.cfg.Migrate(vm, target); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "migrating", "vm": vm, "target": target})
}

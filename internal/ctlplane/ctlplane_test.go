// Control-endpoint tests: snapshot/rows round trips over real HTTP, the
// categorized error taxonomy across the boundary, and a -race scrape loop
// against a stack under E11-style overload traffic.
package ctlplane_test

import (
	"ava/internal/leaktest"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ava"
	"ava/internal/averr"
	"ava/internal/cava"
	"ava/internal/ctlplane"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/sched"
	"ava/internal/server"
)

// ctlSpec is a minimal API: one synchronous call with a modeled cost.
const ctlSpec = `
api "ctl";
const OK = 0;
type st = int32_t { success(OK); };
st ping(uint32_t x);
`

// testStack assembles an in-process stack with n attached VMs.
func testStack(t *testing.T, n int, opts ...ava.Option) (*ava.Stack, []*guest.Lib) {
	t.Helper()
	desc := cava.MustCompile(ctlSpec)
	reg := server.NewRegistry(desc)
	reg.MustRegister("ping", func(inv *server.Invocation) error {
		inv.SetStatus(0)
		return nil
	})
	stack := ava.NewStack(desc, reg, opts...)
	t.Cleanup(stack.Close)
	libs := make([]*guest.Lib, n)
	for i := range libs {
		lib, err := stack.AttachVM(ava.VMConfig{ID: uint32(i + 1), Name: fmt.Sprintf("vm%d", i+1)})
		if err != nil {
			t.Fatal(err)
		}
		libs[i] = lib
	}
	return stack, libs
}

// stackConfig wires a Config over a stack the way a daemon would.
func stackConfig(stack *ava.Stack) ctlplane.Config {
	return ctlplane.Config{
		Ident:  ctlplane.Ident{Service: "test", API: "ctl"},
		Router: ctlplane.RouterSource(stack.Router),
		Server: ctlplane.ServerSource(stack.Server),
		Guests: func() []ctlplane.GuestSnapshot {
			var out []ctlplane.GuestSnapshot
			for _, id := range stack.VMs() {
				if lib := stack.GuestLib(id); lib != nil {
					out = append(out, ctlplane.GuestSnapshot{VM: id, Stats: lib.Stats()})
				}
			}
			return out
		},
	}
}

func startCtl(t *testing.T, cfg ctlplane.Config) *ctlplane.Client {
	t.Helper()
	cs := ctlplane.New(cfg)
	addr, err := cs.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return ctlplane.NewClient(addr)
}

func TestSnapshotAndRows(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, libs := testStack(t, 2)
	for i, lib := range libs {
		for j := 0; j < (i+1)*3; j++ {
			if _, err := lib.Call("ping", uint32(j)); err != nil {
				t.Fatal(err)
			}
		}
	}

	freg := fleet.NewRegistry(0, nil)
	freg.Announce(fleet.Member{ID: "host-a", Addr: "10.0.0.1:7272", API: "ctl", Load: 2})
	freg.Announce(fleet.Member{ID: "host-b", Addr: "10.0.0.2:7272", API: "ctl"})

	drained := make(chan struct{})
	var drainOnce sync.Once
	cfg := stackConfig(stack)
	cfg.Ident.ID = "host-a"
	cfg.Fleet = freg.Members
	cfg.Drain = func() error { drainOnce.Do(func() { close(drained) }); return nil }
	cfg.Checkpoint = func(vm uint32) error {
		return fmt.Errorf("%w: VM %d has no failover guardian", averr.ErrUnknownVM, vm)
	}
	c := startCtl(t, cfg)

	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ident.Service != "test" || snap.Ident.ID != "host-a" {
		t.Fatalf("ident = %+v", snap.Ident)
	}
	if snap.Router == nil || len(snap.Router.VMs) != 2 {
		t.Fatalf("router section = %+v", snap.Router)
	}
	if snap.Router.VMs[0].ID != 1 || snap.Router.VMs[1].ID != 2 {
		t.Fatalf("router VMs not sorted: %+v", snap.Router.VMs)
	}
	if fwd := snap.Router.VMs[1].Stats.Forwarded; fwd != 6 {
		t.Fatalf("vm2 forwarded = %d, want 6", fwd)
	}
	if len(snap.Server) != 2 || snap.Server[1].Stats.Calls != 6 {
		t.Fatalf("server section = %+v", snap.Server)
	}
	if len(snap.Guests) != 2 || snap.Guests[0].Stats.Calls != 3 {
		t.Fatalf("guests section = %+v", snap.Guests)
	}
	if len(snap.Fleet) != 2 || snap.Fleet[0].ID != "host-a" || !snap.Fleet[1].Live {
		t.Fatalf("fleet section = %+v", snap.Fleet)
	}

	rows, err := c.VMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[1].ID != 2 || rows[1].Name != "vm2" || rows[1].Forwarded != 6 || rows[1].Calls != 6 {
		t.Fatalf("row join broken: %+v", rows[1])
	}

	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	default:
		t.Fatal("drain hook did not fire")
	}
}

// TestErrorTaxonomy: errors cross the HTTP boundary with category, code,
// and wire status intact — errors.Is against the averr sentinels holds on
// the client side, and HTTP codes follow the category.
func TestErrorTaxonomy(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, _ := testStack(t, 1)
	cfg := stackConfig(stack)
	cfg.Checkpoint = func(vm uint32) error {
		return fmt.Errorf("%w: VM %d has no failover guardian", averr.ErrUnknownVM, vm)
	}
	c := startCtl(t, cfg)

	err := c.Checkpoint(99)
	if err == nil {
		t.Fatal("checkpoint of unknown VM succeeded")
	}
	if !errors.Is(err, averr.ErrUnknownVM) {
		t.Fatalf("errors.Is(ErrUnknownVM) lost across HTTP: %v", err)
	}
	var re *ctlplane.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("not a RemoteError: %T", err)
	}
	if re.HTTPStatus != http.StatusNotFound || re.Category != "routing" ||
		re.Code != "unknown-vm" || re.Status != "denied" {
		t.Fatalf("taxonomy fields: %+v", re)
	}

	// A hook the process does not offer is a denial.
	err = c.Migrate(1, "elsewhere")
	if !errors.Is(err, averr.ErrDenied) {
		t.Fatalf("migrate without hook: %v", err)
	}
	if !errors.As(err, &re) || re.HTTPStatus != http.StatusForbidden {
		t.Fatalf("migrate without hook: %+v", err)
	}

	// Malformed vm parameter is an argument error (400).
	err = c.Checkpoint(0) // hook wraps ErrUnknownVM; now test missing param raw
	if err == nil {
		t.Fatal("expected error")
	}
	resp, herr := http.Post("http://"+hostOf(c)+"/checkpoint", "", nil)
	if herr != nil {
		t.Fatal(herr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing vm param: http %d, want 400", resp.StatusCode)
	}
}

// hostOf recovers the host:port a test client was built with.
func hostOf(c *ctlplane.Client) string { return c.Host() }

// TestConcurrentScrapeUnderOverload floods a shedding stack E11-style —
// one high-priority prober plus rate-limited low-band flooders — while a
// scraper polls /stats and /vms over live HTTP. Under -race this is the
// torn-read check for every snapshot path; functionally it asserts the
// counters advance while traffic is in flight.
func TestConcurrentScrapeUnderOverload(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(ctlSpec)
	reg := server.NewRegistry(desc)
	reg.MustRegister("ping", func(inv *server.Invocation) error {
		time.Sleep(200 * time.Microsecond)
		inv.SetStatus(0)
		return nil
	})
	stack := ava.NewStack(desc, reg,
		ava.WithScheduler(hv.NewPriorityScheduler(nil, 0)),
		ava.WithShedding(hv.ShedConfig{MaxQueueDepth: 8, MaxRecentStall: time.Millisecond}))
	defer stack.Close()

	hi, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "hi"}, guest.WithPriority(192))
	if err != nil {
		t.Fatal(err)
	}
	los := make([]*guest.Lib, 3)
	for i := range los {
		los[i], err = stack.AttachVM(ava.VMConfig{
			ID: uint32(2 + i), Name: fmt.Sprintf("lo%d", i),
			CallsPerSec: 200, CallBurst: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	c := startCtl(t, stackConfig(stack))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, lo := range los {
		wg.Add(1)
		go func(lib *guest.Lib) {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lib.Call("ping", i) // overload denials are expected
			}
		}(lo)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := hi.Call("ping", i); err != nil {
				t.Errorf("high-priority call: %v", err)
				return
			}
		}
	}()

	deadline := time.Now().Add(600 * time.Millisecond)
	var first, last uint64
	scrapes := 0
	for time.Now().Before(deadline) {
		snap, err := c.Stats()
		if err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		if snap.Router == nil || len(snap.Router.VMs) != 4 {
			t.Fatalf("scrape %d: router section %+v", scrapes, snap.Router)
		}
		var fwd uint64
		for _, vm := range snap.Router.VMs {
			fwd += vm.Stats.Forwarded
		}
		if scrapes == 0 {
			first = fwd
		}
		last = fwd
		if _, err := c.VMs(); err != nil {
			t.Fatalf("scrape %d (vms): %v", scrapes, err)
		}
		scrapes++
	}
	close(stop)
	wg.Wait()

	if scrapes < 10 {
		t.Fatalf("only %d scrapes completed", scrapes)
	}
	if last <= first {
		t.Fatalf("counters did not advance under scrape: first=%d last=%d", first, last)
	}
}

// TestTokenAuthGuardsPosts: with a token configured, POSTs without it
// are 403 denials, POSTs with it (either header form) succeed, and GETs
// stay open for scrapers.
func TestTokenAuthGuardsPosts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, _ := testStack(t, 1)
	cfg := stackConfig(stack)
	cfg.Token = "s3cret"
	drained := 0
	cfg.Drain = func() error { drained++; return nil }
	c := startCtl(t, cfg)

	// No token: denied with the taxonomy intact.
	err := c.Drain()
	if !errors.Is(err, averr.ErrDenied) {
		t.Fatalf("tokenless drain: %v, want ErrDenied", err)
	}
	var re *ctlplane.RemoteError
	if !errors.As(err, &re) || re.HTTPStatus != http.StatusForbidden {
		t.Fatalf("tokenless drain: %+v", err)
	}
	// Wrong token: same denial.
	c.SetToken("wrong")
	if err := c.Drain(); !errors.Is(err, averr.ErrDenied) {
		t.Fatalf("wrong-token drain: %v", err)
	}
	if drained != 0 {
		t.Fatalf("drain hook ran %d times without a valid token", drained)
	}
	// Right token via X-Ava-Token.
	c.SetToken("s3cret")
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// Right token via Authorization: Bearer.
	req, _ := http.NewRequest(http.MethodPost, "http://"+c.Host()+"/drain", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer drain: http %d", resp.StatusCode)
	}
	if drained != 2 {
		t.Fatalf("drain hook ran %d times, want 2", drained)
	}
	// GETs stay open: a tokenless scrape works.
	tokenless := ctlplane.NewClient(c.Host())
	if _, err := tokenless.Stats(); err != nil {
		t.Fatalf("tokenless GET /stats: %v", err)
	}
	if _, err := tokenless.Metrics(); err != nil {
		t.Fatalf("tokenless GET /metrics: %v", err)
	}
}

// TestMetricsExposition: the Prometheus text rendering carries the core
// families with headers, and counters reflect traffic.
func TestMetricsExposition(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, libs := testStack(t, 2)
	for i := 0; i < 5; i++ {
		if _, err := libs[0].Call("ping", uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := stackConfig(stack)
	cfg.Fleet = func() []fleet.Status {
		return []fleet.Status{{Member: fleet.Member{ID: "host-a", API: "ctl", Load: 2}, Live: true}}
	}
	cfg.Guardians = func() []ctlplane.GuardianSnapshot {
		return []ctlplane.GuardianSnapshot{{VM: 1, Watermark: 40, CheckpointErr: "snapshot refused",
			Stats: failover.Stats{Checkpoints: 4, FailedCheckpoints: 3, LogEntries: 14, Superseded: 9}}}
	}
	c := startCtl(t, cfg)
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ava_guardian_checkpoints_total{vm="1"} 4`,
		"# TYPE ava_guardian_checkpoints_failed_total counter",
		`ava_guardian_checkpoints_failed_total{vm="1"} 3`,
		"# TYPE ava_guardian_log_entries gauge",
		`ava_guardian_log_entries{vm="1"} 14`,
		`ava_guardian_superseded_total{vm="1"} 9`,
		"# TYPE ava_up gauge",
		`ava_up{service="test"} 1`,
		"# TYPE ava_router_forwarded_calls_total counter",
		`ava_router_forwarded_calls_total{vm="1",name="vm1"} 5`,
		`ava_server_calls_total{vm="1",name="vm1"} 5`,
		`ava_fleet_member_live{member="host-a",api="ctl"} 1`,
		`ava_fleet_member_load{member="host-a",api="ctl"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSchedAndRebalanceEndpoints: GET /sched round-trips the decision
// log and POST /rebalance reports migrations started.
func TestSchedAndRebalanceEndpoints(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, _ := testStack(t, 1)
	log := sched.NewLog()
	log.Add(sched.Decision{Kind: "place", VM: 7, To: "host-b", Policy: "least-load"})
	cfg := stackConfig(stack)
	cfg.Sched = log.Decisions
	cfg.Rebalance = func() (int, error) { return 3, nil }
	c := startCtl(t, cfg)

	ds, err := c.Sched()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Kind != "place" || ds[0].VM != 7 || ds[0].To != "host-b" {
		t.Fatalf("sched log round trip: %+v", ds)
	}
	n, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rebalance migrations = %d, want 3", n)
	}

	// Without hooks, both are denials.
	bare := startCtl(t, stackConfig(stack))
	if _, err := bare.Sched(); !errors.Is(err, averr.ErrDenied) {
		t.Fatalf("sched without hook: %v", err)
	}
	if _, err := bare.Rebalance(); !errors.Is(err, averr.ErrDenied) {
		t.Fatalf("rebalance without hook: %v", err)
	}
}

package failover

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ava/internal/fleet"
	"ava/internal/leaktest"
	"ava/internal/transport"
)

// fakeLocator serves a fixed ranked member list and honors exclusions.
type fakeLocator struct {
	members []fleet.Member
	queries int
}

func (f *fakeLocator) Announce(fleet.Member) error { return nil }
func (f *fakeLocator) Deregister(string) error     { return nil }
func (f *fakeLocator) Live(api string, exclude ...string) ([]fleet.Member, error) {
	f.queries++
	skip := make(map[string]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	var out []fleet.Member
	for _, m := range f.members {
		if m.API == api && !skip[m.ID] {
			out = append(out, m)
		}
	}
	return out, nil
}

// scriptedResolver fails hosts by name and records the order of attempts.
type scriptedResolver struct {
	down     map[string]bool
	attempts []string
	epochs   []uint32
}

func (r *scriptedResolver) resolve(m fleet.Member, epoch uint32) (transport.Endpoint, error) {
	r.attempts = append(r.attempts, m.ID)
	r.epochs = append(r.epochs, epoch)
	if r.down[m.ID] {
		return nil, fmt.Errorf("host %s down", m.ID)
	}
	return nil, nil
}

func newTestDialer(loc fleet.Locator, res *scriptedResolver, attempts int) *FleetDialer {
	return NewFleetDialer(loc, FleetDialConfig{
		API: "opencl", VM: 1, Name: "test-vm",
		PerHostAttempts: attempts,
		Resolve:         res.resolve,
	})
}

func TestFleetDialerPicksBestLivePeer(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl"},
		{ID: "b", API: "opencl"},
		{ID: "m", API: "mvnc"},
	}}
	res := &scriptedResolver{}
	d := newTestDialer(loc, res, 2)
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "a" {
		t.Fatalf("host = %q, want the registry's first rank", d.Host())
	}
	if d.HostChanges() != 0 {
		t.Fatalf("first dial counted as a host change")
	}
	if len(res.attempts) != 1 || res.attempts[0] == "m" {
		t.Fatalf("attempts = %v", res.attempts)
	}
}

// The dialer must spend the per-host attempt budget on the current host
// before failing over: a same-host restart is far cheaper than a cross-host
// replay.
func TestFleetDialerPerHostBudgetThenFailover(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl"},
		{ID: "b", API: "opencl", Load: 1},
	}}
	res := &scriptedResolver{}
	d := newTestDialer(loc, res, 2)
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}

	// Host a dies. The next PerHostAttempts dials must target only a.
	res.down = map[string]bool{"a": true}
	for i := 0; i < 2; i++ {
		if _, err := d.Dial(); err == nil {
			t.Fatalf("dial %d against dead host succeeded", i)
		} else if !strings.Contains(err.Error(), "a") {
			t.Fatalf("dial %d error does not blame host a: %v", i, err)
		}
	}
	// Budget spent: the next dial excludes a and lands on b.
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "b" {
		t.Fatalf("host = %q, want b", d.Host())
	}
	if d.HostChanges() != 1 {
		t.Fatalf("hostChanges = %d, want 1", d.HostChanges())
	}
	for _, id := range res.attempts[:len(res.attempts)-1] {
		if id == "b" {
			t.Fatalf("dialer moved to b before a's budget was spent: %v", res.attempts)
		}
	}
}

// When every member has failed, the exclusion set must be cleared (except
// the freshly dead host) so recovered peers get another chance instead of
// the VM being abandoned.
func TestFleetDialerRevivesExcludedHosts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl"},
		{ID: "b", API: "opencl", Load: 1},
	}}
	res := &scriptedResolver{down: map[string]bool{"a": true, "b": true}}
	d := newTestDialer(loc, res, 1)

	// Both hosts down: the first dial tries and marks every candidate.
	if _, err := d.Dial(); err == nil {
		t.Fatal("dial with the whole fleet down succeeded")
	}
	// b comes back. With a still marked failed, the revival path must
	// clear b's mark and land there.
	res.down = map[string]bool{"a": true}
	var err error
	for i := 0; i < 3 && d.Host() == ""; i++ {
		_, err = d.Dial()
	}
	if d.Host() != "b" {
		t.Fatalf("host = %q after revival, want b (last err %v)", d.Host(), err)
	}
}

// Relocate must move the VM off a live host in one dial — no retry budget
// — without marking the old host failed, and honor a pinned target.
func TestFleetDialerRelocateLeavesLiveHost(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl"},
		{ID: "b", API: "opencl", Load: 1},
		{ID: "c", API: "opencl", Load: 2},
	}}
	res := &scriptedResolver{}
	d := newTestDialer(loc, res, 2)
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "a" {
		t.Fatalf("host = %q, want a", d.Host())
	}

	// Relocate with a pinned target: lands on c even though b ranks better.
	d.Relocate("c")
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "c" {
		t.Fatalf("host after pinned relocation = %q, want c", d.Host())
	}
	if d.HostChanges() != 1 {
		t.Fatalf("hostChanges = %d, want 1", d.HostChanges())
	}

	// The old host was not marked failed: a later relocation with no pin
	// may land back on it (it ranks best).
	d.Relocate("")
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "a" {
		t.Fatalf("host after unpinned relocation = %q, want a (not marked failed)", d.Host())
	}

	// The directive cleared on success: the next dial stays put.
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "a" || d.HostChanges() != 2 {
		t.Fatalf("relocation directive leaked: host=%q changes=%d", d.Host(), d.HostChanges())
	}
}

// A relocation with no reachable peer must fall back to the current host
// rather than strand the VM.
func TestFleetDialerRelocateFallsBackWhenAlone(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{{ID: "a", API: "opencl"}}}
	res := &scriptedResolver{}
	d := newTestDialer(loc, res, 2)
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	d.Relocate("")
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "a" {
		t.Fatalf("host = %q, want fallback to a", d.Host())
	}
}

// Rank must reorder candidates ahead of the dial walk, and OnDial must
// observe every landing with the previous host.
func TestFleetDialerRankAndOnDialHooks(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl"},
		{ID: "b", API: "opencl", Load: 9},
	}}
	res := &scriptedResolver{}
	type landing struct{ host, prev string }
	var seen []landing
	d := NewFleetDialer(loc, FleetDialConfig{
		API: "opencl", VM: 3, Name: "test-vm", PerHostAttempts: 1,
		Resolve: res.resolve,
		Rank: func(vm uint32, ms []fleet.Member) []fleet.Member {
			// Invert the registry order: heavy host first.
			for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
				ms[i], ms[j] = ms[j], ms[i]
			}
			return ms
		},
		OnDial: func(vm uint32, host, prev string) {
			if vm != 3 {
				t.Errorf("OnDial vm = %d, want 3", vm)
			}
			seen = append(seen, landing{host, prev})
		},
	})
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if d.Host() != "b" {
		t.Fatalf("host = %q, want rank-inverted b", d.Host())
	}
	d.Relocate("")
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	want := []landing{{"b", ""}, {"a", "b"}}
	if len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("OnDial landings = %v, want %v", seen, want)
	}
}

// ackServer is a minimal avad stand-in for the default (TCP + hello)
// resolve path: it answers every ack-requesting hello with the current
// verdict and, on acceptance, holds the connection open.
type ackServer struct {
	l *transport.Listener

	mu     sync.Mutex
	reject bool
	eps    []transport.Endpoint
	hellos int
}

func newAckServer(t *testing.T) *ackServer {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &ackServer{l: l}
	go func() {
		for {
			ep, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				hello, err := transport.RecvCtl(ep)
				if err != nil || hello.Op != transport.OpHello {
					ep.Close()
					return
				}
				s.mu.Lock()
				s.hellos++
				rej := s.reject
				if !rej {
					s.eps = append(s.eps, ep)
				}
				s.mu.Unlock()
				if rej {
					transport.Ack(ep, hello, errors.New("evicted, rebalancing"))
					ep.Close()
					return
				}
				transport.Ack(ep, hello, nil)
			}()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *ackServer) setReject(v bool) {
	s.mu.Lock()
	s.reject = v
	s.mu.Unlock()
}

func (s *ackServer) helloCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hellos
}

func (s *ackServer) close() {
	s.l.Close()
	s.mu.Lock()
	eps := append([]transport.Endpoint(nil), s.eps...)
	s.eps = nil
	s.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// The eviction-convergence regression: a host that admits the TCP connect
// but refuses the VM at the hello must register as a *failed* dial — the
// old behavior counted it a success (hello sent, no verdict awaited),
// reset the per-host budget on every bounce, and pinned the evicted VM to
// its rejecting host for the whole refusal window.
func TestFleetDialerRejectedHelloSpendsBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := newAckServer(t), newAckServer(t)
	loc := &fakeLocator{members: []fleet.Member{
		{ID: "a", API: "opencl", Addr: a.l.Addr()},
		{ID: "b", API: "opencl", Addr: b.l.Addr(), Load: 1},
	}}
	d := NewFleetDialer(loc, FleetDialConfig{
		API: "opencl", VM: 7, Name: "evictee", PerHostAttempts: 2,
	})
	link, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	link.Close()
	if d.Host() != "a" {
		t.Fatalf("host = %q, want a", d.Host())
	}

	// Host a evicts the VM: it keeps accepting TCP but rejects the hello.
	a.setReject(true)
	for i := 0; i < 2; i++ {
		if _, err := d.Dial(); err == nil {
			t.Fatalf("dial %d against the rejecting host succeeded", i)
		} else if !strings.Contains(err.Error(), "refused") {
			t.Fatalf("dial %d error is not a refusal: %v", i, err)
		}
		if d.Host() != "a" {
			t.Fatalf("dialer left host a before the budget was spent")
		}
	}
	// Budget spent: the next dial must land on the peer, not bounce back.
	link, err = d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if d.Host() != "b" {
		t.Fatalf("host after eviction = %q, want b", d.Host())
	}
	if n := a.helloCount(); n != 3 { // first admit + exactly PerHostAttempts rejections
		t.Fatalf("rejecting host saw %d hellos, want 3", n)
	}
	if d.HostChanges() != 1 {
		t.Fatalf("hostChanges = %d, want 1", d.HostChanges())
	}
}

// The hello preamble must carry the guardian's current epoch.
func TestFleetDialerStampsEpoch(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := &fakeLocator{members: []fleet.Member{{ID: "a", API: "opencl"}}}
	res := &scriptedResolver{}
	epoch := uint32(0)
	d := NewFleetDialer(loc, FleetDialConfig{
		API: "opencl", VM: 1, Name: "test-vm",
		Resolve: res.resolve,
		Epoch:   func() uint32 { return epoch },
	})

	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	epoch = 7
	if _, err := d.Dial(); err != nil {
		t.Fatal(err)
	}
	if len(res.epochs) != 2 || res.epochs[0] != 0 || res.epochs[1] != 7 {
		t.Fatalf("stamped epochs = %v", res.epochs)
	}
}

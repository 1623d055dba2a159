package fleet

import (
	"testing"
	"time"

	"ava/internal/clock"
	"ava/internal/leaktest"
)

func TestRegistryLiveRankingAndExclusion(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	r := NewRegistry(time.Second, clk)
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl", Load: 2})
	r.Announce(Member{ID: "b", Addr: "2:2", API: "opencl", Load: 0})
	r.Announce(Member{ID: "c", Addr: "3:3", API: "opencl", Load: 1})
	r.Announce(Member{ID: "d", Addr: "4:4", API: "mvnc", Load: 0})

	ms, err := r.Live("opencl")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].ID != "b" || ms[1].ID != "c" || ms[2].ID != "a" {
		t.Fatalf("health ranking wrong: %+v", ms)
	}

	ms, _ = r.Live("opencl", "b")
	if len(ms) != 2 || ms[0].ID != "c" {
		t.Fatalf("exclusion ignored: %+v", ms)
	}
	if ms, _ := r.Live("mvnc"); len(ms) != 1 || ms[0].ID != "d" {
		t.Fatalf("API filter wrong: %+v", ms)
	}
}

func TestRegistryTTLExpiryAndHeartbeat(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	r := NewRegistry(time.Second, clk)
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl"})
	r.Announce(Member{ID: "b", Addr: "2:2", API: "opencl"})

	clk.Advance(900 * time.Millisecond)
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl"}) // heartbeat
	clk.Advance(500 * time.Millisecond)

	ms, _ := r.Live("opencl")
	if len(ms) != 1 || ms[0].ID != "a" {
		t.Fatalf("TTL expiry wrong: %+v", ms)
	}
	sts := r.Members()
	if len(sts) != 2 {
		t.Fatalf("Members() hid expired entries: %+v", sts)
	}
	if n := r.Expire(); n != 1 {
		t.Fatalf("Expire() dropped %d entries, want 1", n)
	}
	if sts := r.Members(); len(sts) != 1 {
		t.Fatalf("expired entry survived Expire: %+v", sts)
	}
}

func TestRegistryDeregister(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRegistry(0, nil)
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl"})
	r.Deregister("a")
	if ms, _ := r.Live("opencl"); len(ms) != 0 {
		t.Fatalf("deregistered member still live: %+v", ms)
	}
}

func TestAnnouncerHeartbeatAndClose(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	reg := NewRegistry(200*time.Millisecond, nil)
	a := StartAnnouncer(reg, Member{Addr: "1:1", API: "opencl"}, 50*time.Millisecond, nil)
	if ms, _ := reg.Live("opencl"); len(ms) != 1 || ms[0].ID != "1:1" {
		t.Fatalf("initial announce missing: %+v", ms)
	}
	a.SetSampler(func(m *Member) { m.Load = 7 })
	deadline := time.Now().Add(2 * time.Second)
	for {
		ms, _ := reg.Live("opencl")
		if len(ms) == 1 && ms[0].Load == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never carried updated load: %+v", ms)
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Close()
	if ms, _ := reg.Live("opencl"); len(ms) != 0 {
		t.Fatalf("Close did not deregister: %+v", ms)
	}
}

// TestLiveTTLBoundaryMidQuery pins the expiry boundary: a member is live
// through the exact TTL instant and excluded one tick past it, and a
// heartbeat between queries revives it — the edge the dialer's retry
// branch hits when a host's announcement races its own query.
func TestLiveTTLBoundaryMidQuery(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	r := NewRegistry(time.Second, clk)
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl"})

	clk.Advance(time.Second) // exactly TTL: still live (expiry is strict)
	if ms, _ := r.Live("opencl"); len(ms) != 1 {
		t.Fatalf("member expired at exactly TTL: %+v", ms)
	}
	clk.Advance(time.Nanosecond) // one tick past: gone
	if ms, _ := r.Live("opencl"); len(ms) != 0 {
		t.Fatalf("member outlived its TTL: %+v", ms)
	}
	// A heartbeat mid-sequence revives it without a re-register.
	r.Announce(Member{ID: "a", Addr: "1:1", API: "opencl"})
	if ms, _ := r.Live("opencl"); len(ms) != 1 || ms[0].ID != "a" {
		t.Fatalf("heartbeat did not revive the member: %+v", ms)
	}
	// And the revived beat restarts the full TTL, not the remainder.
	clk.Advance(time.Second)
	if ms, _ := r.Live("opencl"); len(ms) != 1 {
		t.Fatalf("revived member expired early: %+v", ms)
	}
}

// TestLiveEqualLoadTieBreakDeterministic: members tying on every load
// signal rank by ID, whatever order they announced in — placement must
// be reproducible from the decision log, so the ranking cannot depend on
// map iteration or announce arrival.
func TestLiveEqualLoadTieBreakDeterministic(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	orders := [][]string{
		{"c", "a", "b"},
		{"b", "c", "a"},
		{"a", "b", "c"},
	}
	for _, order := range orders {
		r := NewRegistry(time.Minute, clock.NewVirtual())
		for _, id := range order {
			r.Announce(Member{ID: id, Addr: id, API: "opencl", Load: 3})
		}
		for i := 0; i < 20; i++ {
			ms, _ := r.Live("opencl")
			if len(ms) != 3 || ms[0].ID != "a" || ms[1].ID != "b" || ms[2].ID != "c" {
				t.Fatalf("announce order %v, query %d: rank %+v, want a,b,c", order, i, ms)
			}
		}
	}

	// The tie-break is lexicographic across the full signal: queue depth
	// splits equal loads, bytes-in-flight splits equal queue depths.
	r := NewRegistry(time.Minute, clock.NewVirtual())
	r.Announce(Member{ID: "a", Addr: "a", API: "opencl", Load: 1, QueueDepth: 9})
	r.Announce(Member{ID: "b", Addr: "b", API: "opencl", Load: 1, QueueDepth: 2, BytesInFlight: 500})
	r.Announce(Member{ID: "c", Addr: "c", API: "opencl", Load: 1, QueueDepth: 2, BytesInFlight: 100})
	ms, _ := r.Live("opencl")
	if len(ms) != 3 || ms[0].ID != "c" || ms[1].ID != "b" || ms[2].ID != "a" {
		t.Fatalf("lexicographic signal ranking wrong: %+v", ms)
	}
}

// TestAnnouncerSamplerAndAnnounceNow: the sampler refreshes the load
// signal on every push, and AnnounceNow lands immediately — the path the
// daemon uses when a VM migrates away and the stale load must not
// attract placements.
func TestAnnouncerSamplerAndAnnounceNow(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	reg := NewRegistry(time.Minute, nil)
	load := 5
	a := StartAnnouncer(reg, Member{ID: "h1", Addr: "1:1", API: "opencl"}, time.Hour, nil)
	defer a.Close()
	a.SetSampler(func(m *Member) { m.Load = load; m.QueueDepth = load * 2 })

	load = 1
	a.AnnounceNow()
	ms, _ := reg.Live("opencl")
	if len(ms) != 1 || ms[0].Load != 1 || ms[0].QueueDepth != 2 {
		t.Fatalf("AnnounceNow did not carry sampled load: %+v", ms)
	}
	// Without a sampler the last sampled figures stand.
	load = 9
	a.SetSampler(nil)
	a.AnnounceNow()
	ms, _ = reg.Live("opencl")
	if len(ms) != 1 || ms[0].Load != 1 || ms[0].QueueDepth != 2 {
		t.Fatalf("sampler ran after being removed: %+v", ms)
	}
}

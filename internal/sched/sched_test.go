package sched

import (
	"fmt"
	"reflect"
	"testing"

	"ava/internal/fleet"
	"ava/internal/leaktest"
)

func ids(ms []fleet.Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func TestLeastLoadRanksDeterministically(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ms := []fleet.Member{
		{ID: "c", Load: 1},
		{ID: "a", Load: 0, QueueDepth: 5},
		{ID: "b", Load: 0},
		{ID: "d", Load: 0},
	}
	got := ids(LeastLoad{}.Rank(7, ms))
	// b and d tie exactly: the ID breaks the tie, every time.
	want := []string{"b", "d", "a", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank = %v, want %v", got, want)
	}
	for i := 0; i < 50; i++ {
		again := ids(LeastLoad{}.Rank(7, []fleet.Member{
			{ID: "d", Load: 0}, {ID: "b", Load: 0},
			{ID: "a", Load: 0, QueueDepth: 5}, {ID: "c", Load: 1},
		}))
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("iteration %d: rank = %v, want %v (nondeterministic)", i, again, want)
		}
	}
}

// A policy over a quorum-merged fleet view ranks exactly as it would over
// a single registry holding the union: placement is agnostic to the
// Locator flavor behind it, which is what lets the HA MultiClient drop in
// under WithPlacement without touching this package.
func TestPolicyRanksQuorumMergedView(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	regA, regB := fleet.NewRegistry(0, nil), fleet.NewRegistry(0, nil)
	// A partitioned announce: each replica heard about a different subset
	// (with one host on both), the way a real fleet looks mid-gossip.
	regA.Announce(fleet.Member{ID: "host-a", Addr: "a:1", API: "opencl", Load: 2})
	regA.Announce(fleet.Member{ID: "host-c", Addr: "c:1", API: "opencl", Load: 0})
	regB.Announce(fleet.Member{ID: "host-b", Addr: "b:1", API: "opencl", Load: 1})
	regB.Announce(fleet.Member{ID: "host-c", Addr: "c:1", API: "opencl", Load: 0})

	single := fleet.NewRegistry(0, nil)
	for _, m := range []fleet.Member{
		{ID: "host-a", Addr: "a:1", API: "opencl", Load: 2},
		{ID: "host-b", Addr: "b:1", API: "opencl", Load: 1},
		{ID: "host-c", Addr: "c:1", API: "opencl", Load: 0},
	} {
		single.Announce(m)
	}

	var merged, union fleet.Locator = fleet.NewMultiClient(regA, regB), single
	for vm := uint32(1); vm <= 3; vm++ {
		a, err := merged.Live("opencl")
		if err != nil {
			t.Fatal(err)
		}
		b, err := union.Live("opencl")
		if err != nil {
			t.Fatal(err)
		}
		got, want := ids(LeastLoad{}.Rank(vm, a)), ids(LeastLoad{}.Rank(vm, b))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vm %d: quorum-merged rank %v != single-registry rank %v", vm, got, want)
		}
		if got[0] != "host-c" {
			t.Fatalf("vm %d: lightest host not ranked first: %v", vm, got)
		}
	}
}

func TestSpreadByVMCountBalancesBurst(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := NewSpreadByVMCount()
	members := []fleet.Member{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	counts := map[string]int{}
	// A burst of 30 attachments with no announced-load movement at all:
	// the spread policy must still distribute 10/10/10.
	for vm := uint32(1); vm <= 30; vm++ {
		ranked := p.Rank(vm, append([]fleet.Member(nil), members...))
		p.Observe(vm, ranked[0].ID)
		counts[ranked[0].ID]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] != 10 {
			t.Fatalf("spread counts = %v, want 10 per host", counts)
		}
	}
}

func TestSpreadByVMCountFollowsObservedMoves(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := NewSpreadByVMCount()
	p.Observe(1, "a")
	p.Observe(2, "a")
	p.Observe(3, "b")
	// VM 1 fails over to b (not the policy's doing): counts must follow.
	p.Observe(1, "b")
	ranked := p.Rank(4, []fleet.Member{{ID: "a"}, {ID: "b"}})
	if ranked[0].ID != "a" {
		t.Fatalf("after observed move, rank = %v, want a first", ids(ranked))
	}
	// Re-ranking a VM that already lives somewhere must not double-count
	// its own placement against that host.
	ranked = p.Rank(3, []fleet.Member{{ID: "a"}, {ID: "b"}})
	if ranked[0].ID != "a" && ranked[0].ID != "b" {
		t.Fatalf("unexpected rank %v", ids(ranked))
	}
	p.Forget(1)
	p.Forget(2)
	p.Forget(3)
	ranked = p.Rank(5, []fleet.Member{{ID: "a", Load: 1}, {ID: "b"}})
	if ranked[0].ID != "b" {
		t.Fatalf("after forget, load ranking should decide: got %v", ids(ranked))
	}
}

func TestLogRingBounded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	l := NewLog()
	for i := 0; i < logCap+50; i++ {
		l.Add(Decision{Kind: "place", VM: uint32(i), To: fmt.Sprintf("h%d", i)})
	}
	ds := l.Decisions()
	if len(ds) != logCap {
		t.Fatalf("log retained %d, want %d", len(ds), logCap)
	}
	if ds[0].Seq != 51 || ds[len(ds)-1].Seq != logCap+50 {
		t.Fatalf("ring order wrong: first seq %d last %d", ds[0].Seq, ds[len(ds)-1].Seq)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Seq != ds[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, ds[i-1].Seq, ds[i].Seq)
		}
	}
}

package fleet

import (
	"testing"
	"time"

	"ava/internal/clock"
	"ava/internal/leaktest"
)

// Two registries that missed each other's announces converge to the same
// member table after one gossip exchange in each direction, and agree on
// TTL expiry because beats replicate verbatim.
func TestGossipConvergenceAfterPartitionedAnnounce(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtualAt(time.Unix(1000, 0))
	regA := NewRegistry(time.Second, clk)
	regB := NewRegistry(time.Second, clk)

	// The "partition": host-a's announce only reached registry A, host-b's
	// only registry B.
	regA.Announce(Member{ID: "host-a", Addr: "a:1", API: "opencl"})
	clk.Advance(10 * time.Millisecond)
	regB.Announce(Member{ID: "host-b", Addr: "b:1", API: "opencl"})

	// One anti-entropy push each way repairs both tables.
	if n := regB.Merge(regA.Export()); n != 1 {
		t.Fatalf("B adopted %d entries from A, want 1", n)
	}
	if n := regA.Merge(regB.Export()); n != 1 {
		t.Fatalf("A adopted %d entries from B, want 1", n)
	}
	for _, reg := range []*Registry{regA, regB} {
		ms, err := reg.Live("opencl")
		if err != nil || len(ms) != 2 {
			t.Fatalf("converged Live = %v, %v; want both hosts", ms, err)
		}
	}

	// A replicated beat is the original write time, not the merge time:
	// when host-a's heartbeat stops, both registries expire it at the same
	// virtual instant even though B learned of it second-hand.
	clk.Advance(time.Second - 2*time.Millisecond) // host-a 8ms past its TTL, host-b 2ms inside it
	for _, reg := range []*Registry{regA, regB} {
		ms, err := reg.Live("opencl")
		if err != nil || len(ms) != 1 || ms[0].ID != "host-b" {
			t.Fatalf("post-TTL Live = %v, %v; want exactly host-b", ms, err)
		}
	}
}

// A merge never resurrects a deregistered member from a peer's stale
// announce: the tombstone is a newer write and last-write-wins keeps it.
func TestGossipTombstoneBeatsStaleAnnounce(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtualAt(time.Unix(1000, 0))
	regA := NewRegistry(time.Second, clk)
	regB := NewRegistry(time.Second, clk)

	regA.Announce(Member{ID: "host-a", Addr: "a:1", API: "opencl"})
	regB.Merge(regA.Export()) // B learns of host-a

	clk.Advance(10 * time.Millisecond)
	regA.Deregister("host-a") // graceful shutdown seen only by A

	// B still believes in host-a; its push must not revive it on A.
	regA.Merge(regB.Export())
	if ms, _ := regA.Live("opencl"); len(ms) != 0 {
		t.Fatalf("stale gossip resurrected deregistered member: %v", ms)
	}
	// And A's push teaches B about the deregister.
	regB.Merge(regA.Export())
	if ms, _ := regB.Live("opencl"); len(ms) != 0 {
		t.Fatalf("tombstone did not replicate: %v", ms)
	}

	// A newer announce (the host actually came back) revives through the
	// same last-write-wins rule.
	clk.Advance(10 * time.Millisecond)
	regB.Announce(Member{ID: "host-a", Addr: "a:1", API: "opencl"})
	regA.Merge(regB.Export())
	if ms, _ := regA.Live("opencl"); len(ms) != 1 {
		t.Fatalf("fresh announce did not revive tombstoned member")
	}
}

// Ties on beat keep the local copy and count nothing adopted, so repeated
// pushes of an unchanged table are idempotent.
func TestGossipMergeIdempotent(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtualAt(time.Unix(1000, 0))
	regA := NewRegistry(time.Second, clk)
	regB := NewRegistry(time.Second, clk)
	regA.Announce(Member{ID: "host-a", Addr: "a:1", API: "opencl"})

	ex := regA.Export()
	if n := regB.Merge(ex); n != 1 {
		t.Fatalf("first merge adopted %d, want 1", n)
	}
	if n := regB.Merge(ex); n != 0 {
		t.Fatalf("repeat merge adopted %d, want 0", n)
	}
}

// The Gossiper delivers an announce that hit only one registry to the
// peer within a push interval or two.
func TestGossiperPushesOnCadence(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	regA := NewRegistry(0, nil)
	regB := NewRegistry(0, nil)
	regA.Announce(Member{ID: "host-a", Addr: "a:1", API: "opencl"})

	g := StartGossip(regA, []GossipPeer{regB}, 2*time.Millisecond, nil)
	defer g.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ms, _ := regB.Live("opencl"); len(ms) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("gossip never delivered the member to the peer")
}

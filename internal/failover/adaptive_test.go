package failover

import (
	"testing"

	"ava/internal/cava"
	"ava/internal/leaktest"
	"ava/internal/marshal"
)

// newCadenceGuardian builds just enough guardian state to drive the
// checkpoint-cadence policy directly; no pumps run.
func newCadenceGuardian(cfg Config) *Guardian {
	return &Guardian{cfg: cfg, inflightSync: make(map[uint64]struct{})}
}

// The adaptive policy must never add a stall to a hot workload: a due
// checkpoint is deferred while sync calls are in flight, because the
// quiesce barrier would hold those calls hostage.
func TestAdaptiveCheckpointDefersWhileBusy(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	g := newCadenceGuardian(Config{CheckpointEvery: 8, AdaptiveCheckpoint: true, Retain: 4096})
	g.sinceCkpt = 8
	g.maxSeq = 8

	if !g.checkpointDueLocked() {
		t.Fatal("idle link at cadence: checkpoint must be due")
	}
	g.inflightSync[1] = struct{}{}
	if g.checkpointDueLocked() {
		t.Fatal("sync call in flight: a due checkpoint must be deferred, not stall the caller")
	}
	delete(g.inflightSync, 1)
	if !g.checkpointDueLocked() {
		t.Fatal("link drained: the deferred checkpoint must become due again")
	}
}

// Deferral is bounded two ways: the uncheckpointed span approaching half
// the guest's retained window, or the deferral reaching 4x the cadence.
// Past either bound the checkpoint cuts even under load, because the guest
// can no longer trim frames and recovery replay grows without limit.
func TestAdaptiveCheckpointDeferralBounds(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	g := newCadenceGuardian(Config{CheckpointEvery: 8, AdaptiveCheckpoint: true, Retain: 64})
	g.inflightSync[1] = struct{}{}

	g.sinceCkpt = 8
	g.maxSeq = 8
	if g.checkpointDueLocked() {
		t.Fatal("span well inside the window: must defer")
	}

	// Span reaches retain/2.
	g.maxSeq = 32
	if !g.checkpointDueLocked() {
		t.Fatal("span at half the retained window: must cut despite load")
	}

	// Deferral reaches 4x cadence with a small span.
	g.maxSeq = 8
	g.sinceCkpt = 32
	if !g.checkpointDueLocked() {
		t.Fatal("deferral at 4x cadence: must cut despite load")
	}
}

// Without AdaptiveCheckpoint the legacy behavior is unchanged: cadence
// alone decides, busy or not.
func TestFixedCadenceIgnoresLoad(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	g := newCadenceGuardian(Config{CheckpointEvery: 8})
	g.sinceCkpt = 8
	g.inflightSync[1] = struct{}{}
	if !g.checkpointDueLocked() {
		t.Fatal("fixed cadence must cut at CheckpointEvery regardless of load")
	}
	g.sinceCkpt = 7
	if g.checkpointDueLocked() {
		t.Fatal("below cadence: not due")
	}
}

// admit must judge a call against the epoch and link generation current
// when it takes the lock, not the ones the uplink read when it picked the
// frame up: a recovery that ran to completion in between has already
// replaced inflightSync, and a stale sync call recorded there is one no
// server will ever answer — the next resubmission's drainSyncs (or a
// checkpoint's quiesce) would wait on it forever.
func TestAdmitDropsCallPickedUpBeforeAFinishedRecovery(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	g := New(&cava.Descriptor{}, nil, Config{})
	defer g.Close()
	staleGen := g.linkGen

	// A whole recovery: link lost, replacement adopted, replay done.
	rs, ok := g.toRecovering(staleGen)
	if _, adopted := g.adopt(nil); !ok || !adopted {
		t.Fatalf("recovery did not start: lost %v, adopted %v", ok, adopted)
	}
	g.toServing(rs, g.clk.Now())

	if forward, _ := g.admit(&marshal.Call{Seq: 7, Epoch: g.epoch - 1}, staleGen); forward {
		t.Fatal("a call from before the recovery was admitted onto the new link")
	}
	if len(g.inflightSync) != 0 {
		t.Fatalf("stale call recorded as in flight on the new link: %v", g.inflightSync)
	}
	if g.stats.StaleDropped != 1 {
		t.Fatalf("StaleDropped = %d, want 1", g.stats.StaleDropped)
	}
	// The same call resubmitted under the new epoch goes through.
	if forward, _ := g.admit(&marshal.Call{Seq: 7, Epoch: g.epoch}, g.linkGen); !forward {
		t.Fatal("the resubmitted call was refused")
	}
	if _, ok := g.inflightSync[7]; !ok {
		t.Fatal("admitted sync call not tracked as in flight")
	}
}

package mvnc

import (
	"bytes"
	"testing"

	"ava/internal/marshal"
)

func adapterGraph(t *testing.T) (MigrationAdapter, *Silo, *Graph) {
	t.Helper()
	s := NewSilo(Config{Sticks: 1})
	d, st := s.MvncOpenDevice(nil, 0)
	if st != 0 {
		t.Fatalf("OpenDevice: status %d", st)
	}
	blob := GraphBlob("inception_v3_sim", 42, 10, 0)
	g, st := s.MvncAllocateGraph(nil, d, "g", uint64(len(blob)), blob)
	if st != 0 {
		t.Fatalf("AllocateGraph: status %d", st)
	}
	return MigrationAdapter{Silo: s}, s, g
}

// fullState takes a full capture of g and composes it into the graph's
// serialized state.
func fullState(t *testing.T, a MigrationAdapter, g *Graph) []byte {
	t.Helper()
	d, stateful, err := a.SnapshotObject(g, true)
	if err != nil || !stateful || !d.Full {
		t.Fatalf("full capture: %+v stateful=%v err=%v", d, stateful, err)
	}
	state, err := marshal.ApplyObjectDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestAdapterDeltaLifecycle(t *testing.T) {
	a, s, g := adapterGraph(t)

	// A graph no delta snapshot has seen must ship Full the first time.
	d1, stateful, err := a.SnapshotObject(g, false)
	if err != nil || !stateful {
		t.Fatalf("first delta: stateful=%v err=%v", stateful, err)
	}
	if !d1.Full {
		t.Fatal("first delta of a fresh graph is not Full")
	}
	full := fullState(t, a, g)
	composed, err := marshal.ApplyObjectDelta(nil, d1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(composed, full) {
		t.Fatal("Full delta does not compose to the full snapshot")
	}

	// Untouched since the drain: the next delta is empty, non-Full, and
	// names the unchanged base length.
	d2, _, err := a.SnapshotObject(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full || len(d2.Ranges) != 0 || d2.BaseLen != uint64(len(full)) {
		t.Fatalf("clean delta = %+v, want empty with BaseLen %d", d2, len(full))
	}
	if got, err := marshal.ApplyObjectDelta(full, d2); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("empty delta composition: %v", err)
	}

	// A mutation (queued inference result) moves the generation: the next
	// delta ships the new state in full.
	if st := s.MvncLoadTensor(nil, g, 3*64*64*4, make([]byte, 3*64*64*4)); st != 0 {
		t.Fatalf("LoadTensor: status %d", st)
	}
	d3, _, err := a.SnapshotObject(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Full {
		t.Fatal("delta after mutation is not Full")
	}
	full2 := fullState(t, a, g)
	if composed, err := marshal.ApplyObjectDelta(nil, d3); err != nil || !bytes.Equal(composed, full2) {
		t.Fatalf("post-mutation delta composition: %v", err)
	}
	if bytes.Equal(full2, full) {
		t.Fatal("LoadTensor did not change the serialized state")
	}

	// A full capture drains too: after a mutation and a full capture, the
	// next delta is clean.
	if st := s.MvncLoadTensor(nil, g, 3*64*64*4, make([]byte, 3*64*64*4)); st != 0 {
		t.Fatalf("LoadTensor: status %d", st)
	}
	full3 := fullState(t, a, g)
	if d4, _, err := a.SnapshotObject(g, false); err != nil || d4.Full || d4.BaseLen != uint64(len(full3)) {
		t.Fatalf("delta after a full capture = %+v (%v), want clean with BaseLen %d", d4, err, len(full3))
	}
}

func TestAdapterRestoreRoundTrip(t *testing.T) {
	a, s, g := adapterGraph(t)
	if st := s.MvncLoadTensor(nil, g, 3*64*64*4, make([]byte, 3*64*64*4)); st != 0 {
		t.Fatalf("LoadTensor: status %d", st)
	}
	if st := s.MvncSetGraphOption(nil, g, 1, 7000); st != 0 {
		t.Fatalf("SetGraphOption: status %d", st)
	}
	state := fullState(t, a, g)

	// Restore into a fresh graph on a fresh silo and compare snapshots.
	a2, _, g2 := adapterGraph(t)
	if err := a2.RestoreObject(g2, state); err != nil {
		t.Fatal(err)
	}
	// The restore changed the base under the watermark: the next delta
	// must be Full even though no call touched the graph since.
	d, _, err := a2.SnapshotObject(g2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full {
		t.Fatal("first delta after restore is not Full")
	}
	if state2, err := marshal.ApplyObjectDelta(nil, d); err != nil || !bytes.Equal(state2, state) {
		t.Fatalf("restored graph state differs from source snapshot (%v)", err)
	}

	// Corrupt state is rejected without mutating the graph.
	if err := a2.RestoreObject(g2, state[:5]); err == nil {
		t.Fatal("truncated state accepted")
	}
	if err := a2.RestoreObject(42, state); err == nil {
		t.Fatal("non-graph object accepted")
	}
}

package failover

import (
	"bytes"
	"testing"

	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
)

func rec(seq uint64, created marshal.Handle, args ...marshal.Value) *migrate.RecordedCall {
	return &migrate.RecordedCall{Func: 1, Seq: seq, Created: created, Args: args}
}

func mirrorSeqs(st *MirrorState) []uint64 {
	out := make([]uint64, 0, len(st.Entries))
	for _, rc := range st.Entries {
		out = append(out, rc.Seq)
	}
	return out
}

func TestMemoryMirrorAppendReplyDrop(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	m := NewMemoryMirror()
	m.MirrorAppend(rec(1, 10))
	m.MirrorAppend(rec(2, 0, marshal.HandleVal(10)))

	done := rec(1, 10)
	done.Ret = marshal.Int(0)
	done.Outs = []marshal.Value{marshal.BytesVal([]byte{1, 2, 3})}
	m.MirrorReply(done)

	st := m.State()
	if got := mirrorSeqs(st); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("entries = %v", got)
	}
	if !st.ReplySeen[1] || st.ReplySeen[2] {
		t.Fatalf("replySeen = %v", st.ReplySeen)
	}
	if !bytes.Equal(st.Entries[0].Outs[0].Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("reply outs not mirrored: %+v", st.Entries[0])
	}

	m.MirrorDrop(2)
	if got := mirrorSeqs(m.State()); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after drop: entries = %v", got)
	}
}

// A re-recorded seq (resubmission after recovery) must replace the old
// entry in place and clear its reply-seen mark, exactly as the guardian's
// shadow log does.
func TestMemoryMirrorAppendUpserts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	m := NewMemoryMirror()
	first := rec(5, 50)
	m.MirrorAppend(first)
	m.MirrorReply(first)

	replacement := rec(5, 51)
	m.MirrorAppend(replacement)

	st := m.State()
	if len(st.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(st.Entries))
	}
	if st.Entries[0].Created != 51 {
		t.Fatalf("upsert kept the old record: %+v", st.Entries[0])
	}
	if st.ReplySeen[5] {
		t.Fatal("reply-seen survived the re-record")
	}
}

func TestMemoryMirrorPrune(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	m := NewMemoryMirror()
	m.MirrorAppend(rec(1, 10))                       // created the handle
	m.MirrorAppend(rec(2, 0, marshal.HandleVal(10))) // touches it
	m.MirrorAppend(rec(3, 0, marshal.HandleVal(11))) // unrelated
	m.MirrorPrune(10)
	if got := mirrorSeqs(m.State()); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after prune: entries = %v", got)
	}
}

// State must be a deep copy: mutating the snapshot or feeding the mirror
// afterwards cannot corrupt the other side.
func TestMemoryMirrorStateIsolation(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	m := NewMemoryMirror()
	m.MirrorAppend(rec(1, 10, marshal.BytesVal([]byte{9})))
	m.MirrorCheckpoint(3, 1, fullDeltas(map[marshal.Handle][]byte{10: {7, 7}}))

	st := m.State()
	if st.Epoch != 3 || st.W != 1 {
		t.Fatalf("epoch/w = %d/%d", st.Epoch, st.W)
	}
	st.Entries[0].Args[0].Bytes()[0] = 0xFF
	st.Objects[10][0] = 0xFF

	st2 := m.State()
	if st2.Entries[0].Args[0].Bytes()[0] != 9 {
		t.Fatal("snapshot mutation leaked into the mirror's entries")
	}
	if st2.Objects[10][0] != 7 {
		t.Fatal("snapshot mutation leaked into the mirror's objects")
	}

	m.MirrorCheckpoint(4, 2, fullDeltas(map[marshal.Handle][]byte{10: {8}}))
	if st2.W != 1 || st2.Objects[10][0] != 7 {
		t.Fatal("later checkpoint mutated an earlier snapshot")
	}
}

// Object states travel in a MirrorState as an all-Full delta set: they
// round-trip, encode deterministically, and a truncated trailer or one
// holding a delta that needs a base is refused.
func TestObjectStatesRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	in := map[marshal.Handle][]byte{
		1:   {0xA, 0xB},
		999: {},
		42:  {1, 2, 3, 4, 5},
	}
	b := EncodeMirrorState(&MirrorState{Objects: in})
	st, err := DecodeMirrorState(b)
	if err != nil {
		t.Fatal(err)
	}
	out := st.Objects
	if len(out) != len(in) {
		t.Fatalf("round trip lost entries: %v", out)
	}
	for h, state := range in {
		if !bytes.Equal(out[h], state) {
			t.Fatalf("handle %d: %v != %v", h, out[h], state)
		}
	}
	// Deterministic encoding: equal maps produce equal bytes.
	if !bytes.Equal(b, EncodeMirrorState(&MirrorState{Objects: in})) {
		t.Fatal("encoding is not deterministic")
	}
	header := EncodeMirrorState(&MirrorState{})
	header = header[:len(header)-4] // drop the empty object set
	if _, err := DecodeMirrorState(append(header, 1, 0, 0, 0, 9)); err == nil {
		t.Fatal("truncated payload decoded")
	}
	notFull := marshal.EncodeObjectDeltas([]marshal.ObjectDelta{{Handle: 1, BaseLen: 0}})
	if _, err := DecodeMirrorState(append(header, notFull...)); err == nil {
		t.Fatal("an object that needs a base decoded")
	}
}

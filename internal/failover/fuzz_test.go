package failover

import (
	"testing"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/migrate"
)

// The three decoders below read bytes that arrive from another machine:
// mirror-batch sub-ops on a mirror host, a fetched MirrorState on a
// rehydrating guardian, control notices on a guest. The checked-in corpora
// (testdata/fuzz) hold every op as its encoder emits it plus truncated,
// oversized and unknown-op frames; the seeds added in code are the
// current encoders' object-state forms, which corpus entries of a retired
// format do not reach.

// FuzzApplyMirrorSub applies one arbitrary sub-op to a mirror that already
// holds an entry and a checkpoint (so replies, drops, prunes and deltas
// have something to hit). It must not panic, and whatever state results
// must survive the state codec.
func FuzzApplyMirrorSub(f *testing.F) {
	for _, deltas := range [][]marshal.ObjectDelta{
		{{Handle: 10, BaseLen: 4, Ranges: []marshal.DeltaRange{{Off: 1, Bytes: []byte{9}}}}},
		fullDeltas(map[marshal.Handle][]byte{10: {5, 6}, 11: {7}}),
		{{Handle: 11, BaseLen: 4}},
	} {
		f.Add(subMark(mirrorSubCheckpoint, 2, 2, marshal.EncodeObjectDeltas(deltas)))
	}
	f.Fuzz(func(t *testing.T, sub []byte) {
		m := NewMemoryMirror()
		m.MirrorAppend(rec(1, 10, marshal.HandleVal(10), marshal.BytesVal([]byte{1, 2})))
		m.MirrorCheckpoint(1, 1, fullDeltas(map[marshal.Handle][]byte{10: {1, 2, 3, 4}}))
		if err := applyMirrorSub(m, sub); err != nil {
			return
		}
		st := m.State()
		again, err := DecodeMirrorState(EncodeMirrorState(st))
		if err != nil || !sameMirrorState(st, again) {
			t.Fatalf("state after sub-op %x does not round-trip: %v\n got %+v\nwant %+v", sub, err, again, st)
		}
	})
}

// FuzzDecodeMirrorState: no input panics the decoder; an accepted state
// re-encodes to something that decodes to the same state, and a guardian
// can load it and derive a replay log from it without panicking.
func FuzzDecodeMirrorState(f *testing.F) {
	desc := cava.MustCompile(logSpec)
	f.Add(EncodeMirrorState(&MirrorState{
		Entries: []migrate.RecordedCall{*rec(1, 10, marshal.BytesVal([]byte{1}))},
		W:       1,
		Objects: map[marshal.Handle][]byte{10: {1, 2, 3}, 12: {}},
		Epoch:   2,
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeMirrorState(b)
		if err != nil {
			return
		}
		again, err := DecodeMirrorState(EncodeMirrorState(st))
		if err != nil || !sameMirrorState(st, again) {
			t.Fatalf("re-encoded state differs: %v\n got %+v\nwant %+v", err, again, st)
		}
		l := newShadowLog(desc, NewMemoryMirror())
		l.load(st)
		l.replayLog(st.W)
	})
}

// FuzzDecodeControl: any frame the reply decoder accepts is either refused
// as a notice or yields a triple that EncodeControl reproduces.
func FuzzDecodeControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		rep, err := marshal.DecodeReply(frame)
		if err != nil {
			return
		}
		kind, epoch, w, ok := marshal.DecodeControl(rep)
		if !ok {
			return
		}
		back, err := marshal.DecodeReply(marshal.EncodeControl(kind, epoch, w))
		if err != nil {
			t.Fatal(err)
		}
		k2, e2, w2, ok := marshal.DecodeControl(back)
		if !ok || k2 != kind || e2 != epoch || w2 != w {
			t.Fatalf("notice (%d,%d,%d) re-encodes to (%d,%d,%d) ok=%v", kind, epoch, w, k2, e2, w2, ok)
		}
	})
}

package marshal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Wire identity across Value layouts. testdata/golden holds frames written
// by the encoder as it stood before Value became a four-word tagged form
// (fields Int/Uint/Float/Bool/Str/Bytes/Ref, one live per kind): calls.batch
// is one batch frame carrying one call per value kind, replies.batch the
// matching replies (value as Ret and as the only Out) in the same envelope.
// Both directions are pinned: today's encoder must produce those bytes from
// the same constructors, and today's decoder must read them back to equal
// values that re-encode to the same bytes.

// goldenValues is one value per kind, plus the buffer shapes the encoders
// branch on: nil, empty, small, and past SegmentThreshold.
func goldenValues() []Value {
	big := make([]byte, SegmentThreshold+33)
	for i := range big {
		big[i] = byte(i*7 + 3)
	}
	return []Value{
		Null(),
		Int(-42),
		Uint(1<<63 + 5),
		Float(-1.5),
		Bool(true),
		Bool(false),
		Str("héllo, wire"),
		Str(""),
		BytesVal(nil),
		BytesVal([]byte{}),
		BytesVal([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		BytesVal(big),
		Len(4096),
		HandleVal(7),
		RegRefVal(3, 128, 65536),
	}
}

func goldenCall(i int, v Value) *Call {
	return &Call{
		Seq: uint64(100 + i), VM: 9, Func: uint32(i), Flags: FlagAsync | FlagBatched | 0x8000,
		Priority: 200, Epoch: 3, Deadline: 1_700_000_000_000_000_123,
		Stamps: Stamps{Encode: 11, Admit: 22, Dispatch: 33, Done: 44},
		Args:   []Value{HandleVal(1), v, Uint(2)},
	}
}

func goldenReply(i int, v Value) *Reply {
	return &Reply{
		Seq: uint64(100 + i), Status: Status(i % 8), Err: "detail é",
		Stamps: Stamps{Encode: 11, Admit: 22, Dispatch: 33, Done: 44},
		Ret:    v, Outs: []Value{v},
	}
}

func readGolden(t *testing.T, name string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := DecodeBatch(raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again := EncodeBatch(frames); !bytes.Equal(again, raw) {
		t.Fatalf("%s: batch envelope does not re-encode to itself", name)
	}
	return frames
}

func TestGoldenCallFrames(t *testing.T) {
	vals := goldenValues()
	frames := readGolden(t, "calls.batch")
	if len(frames) != len(vals) {
		t.Fatalf("%d golden calls, %d values", len(frames), len(vals))
	}
	for i, v := range vals {
		want := goldenCall(i, v)
		if got := EncodeCall(want); !bytes.Equal(got, frames[i]) {
			t.Errorf("call %d (%v): encoder output differs from the golden frame", i, v.Kind())
		}
		// The scatter-gather encoder is the same bytes once spliced.
		phys, segs := AppendCallSegments(nil, want, 0)
		if got := SpliceSegments(nil, phys, segs); !bytes.Equal(got, frames[i]) {
			t.Errorf("call %d (%v): segmented encoding differs from the golden frame", i, v.Kind())
		}
		var c Call
		if err := DecodeCallInto(&c, frames[i]); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !callsEqual(&c, want) {
			t.Errorf("call %d (%v): decoded %+v", i, v.Kind(), c)
		}
		if got := EncodeCall(&c); !bytes.Equal(got, frames[i]) {
			t.Errorf("call %d (%v): decode then encode is not the identity", i, v.Kind())
		}
	}
}

func TestGoldenReplyFrames(t *testing.T) {
	vals := goldenValues()
	frames := readGolden(t, "replies.batch")
	if len(frames) != len(vals) {
		t.Fatalf("%d golden replies, %d values", len(frames), len(vals))
	}
	for i, v := range vals {
		want := goldenReply(i, v)
		if got := EncodeReply(want); !bytes.Equal(got, frames[i]) {
			t.Errorf("reply %d (%v): encoder output differs from the golden frame", i, v.Kind())
		}
		phys, segs := AppendReplySegments(nil, nil, want, 0)
		if got := SpliceSegments(nil, phys, segs); !bytes.Equal(got, frames[i]) {
			t.Errorf("reply %d (%v): segmented encoding differs from the golden frame", i, v.Kind())
		}
		var rep Reply
		if err := DecodeReplyInto(&rep, frames[i]); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rep.Seq != want.Seq || rep.Status != want.Status || rep.Err != want.Err || rep.Stamps != want.Stamps ||
			!rep.Ret.Equal(v) || len(rep.Outs) != 1 || !rep.Outs[0].Equal(v) {
			t.Errorf("reply %d (%v): decoded %+v", i, v.Kind(), rep)
		}
		if got := EncodeReply(&rep); !bytes.Equal(got, frames[i]) {
			t.Errorf("reply %d (%v): decode then encode is not the identity", i, v.Kind())
		}
	}
}

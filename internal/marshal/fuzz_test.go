package marshal

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// fuzzSeedCalls are hand-built frames covering every Value kind, the
// segment threshold boundary, and unknown (future) flag bits; they seed
// the fuzzer and double as the checked-in corpus under testdata/fuzz.
func fuzzSeedCalls() [][]byte {
	big := make([]byte, SegmentThreshold+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	calls := []*Call{
		{},
		{Seq: 1, VM: 2, Func: 3, Flags: FlagAsync, Priority: 9, Epoch: 4,
			Deadline: 1 << 40, Stamps: Stamps{Encode: 1, Admit: 2, Dispatch: 3, Done: 4}},
		{Seq: 7, Func: 1, Args: []Value{
			Null(), Int(-5), Uint(5), Float(1.5), Bool(true), Str("kernel"),
			BytesVal([]byte{1, 2, 3}), Len(64), HandleVal(12),
		}},
		{Seq: 8, Func: 2, Flags: FlagBatched | 0x4000, // unknown high bit
			Args: []Value{BytesVal(big)}},
	}
	frames := make([][]byte, len(calls))
	for i, c := range calls {
		frames[i] = EncodeCall(c)
	}
	return frames
}

// FuzzDecodeCall checks that DecodeCall never panics on arbitrary bytes
// and that every frame it accepts round-trips losslessly through both
// encoders: AppendCall, and AppendCallSegments + SpliceSegments (the
// scatter-gather path must be byte-for-byte the copying encoding).
//
// It is differential, too: every input is also decoded into a dirty reused
// record, and the two decodes must agree field for field — or, on a
// malformed frame, error for error.
func FuzzDecodeCall(f *testing.F) {
	for _, seed := range fuzzSeedCalls() {
		f.Add(seed)
		for _, cut := range truncations(seed) {
			f.Add(cut) // malformed frames: the error paths of both decoders
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCall(data)
		dirty := dirtyCall()
		derr := DecodeCallInto(dirty, data)
		if !sameError(err, derr) {
			t.Fatalf("fresh decode error %v, reused-record decode error %v", err, derr)
		}
		if err != nil {
			return
		}
		if !callsIdentical(c, dirty) {
			t.Fatalf("reused record differs from fresh decode:\n  fresh:  %+v\n  reused: %+v", c, dirty)
		}
		enc := AppendCall(nil, c)
		// Unknown flag bits must survive re-encoding (forward compat:
		// FlagsKnown is advisory, not a mask applied on decode).
		if c2, err := DecodeCall(enc); err != nil {
			t.Fatalf("re-decode: %v", err)
		} else if !callsEqual(c, c2) {
			t.Fatalf("round-trip mismatch:\n  in:  %+v\n  out: %+v", c, c2)
		}
		// Segmented encoding, forced (minSeg 1) and at the default
		// threshold, must splice back to the exact copying encoding.
		for _, minSeg := range []int{1, 0} {
			frame, segs := AppendCallSegments(nil, c, minSeg)
			if len(frame)+SegmentsLen(segs) != len(enc) {
				t.Fatalf("minSeg %d: virtual length %d, want %d",
					minSeg, len(frame)+SegmentsLen(segs), len(enc))
			}
			if got := SpliceSegments(nil, frame, segs); !bytes.Equal(got, enc) {
				t.Fatalf("minSeg %d: spliced segmented encoding differs from AppendCall", minSeg)
			}
		}
	})
}

// truncations returns malformed variants of a valid frame: cut inside the
// header, inside the value vector and one byte short, plus one with trailing
// garbage and one with a corrupted kind tag.
func truncations(frame []byte) [][]byte {
	var out [][]byte
	for _, n := range []int{0, 7, 20, CallHeaderSize - 1, len(frame) - 1} {
		if n >= 0 && n < len(frame) {
			out = append(out, frame[:n:n])
		}
	}
	out = append(out, append(append([]byte(nil), frame...), 0xEE))
	if len(frame) > CallHeaderSize {
		bad := append([]byte(nil), frame...)
		bad[CallHeaderSize] = 0x7F // first argument's kind tag
		out = append(out, bad)
	}
	return out
}

// dirtyCall is a record as a serve loop would hand it back to the decoder:
// every field set by an earlier, longer call.
func dirtyCall() *Call {
	c := &Call{Seq: 99, VM: 98, Func: 97, Flags: 0xFFFF, Priority: 96, Epoch: 95, Deadline: 94,
		Stamps: Stamps{Encode: 93, Admit: 92, Dispatch: 91, Done: 90}}
	c.Args = dirtyValues(16)
	return c
}

func dirtyReply() *Reply {
	return &Reply{Seq: 99, Status: StatusInternal, Err: "stale error",
		Stamps: Stamps{Encode: 93, Admit: 92, Dispatch: 91, Done: 90},
		Ret:    dirtyValues(1)[0], Outs: dirtyValues(16)}
}

// dirtyValues returns n values with every word populated, whatever the kind.
func dirtyValues(n int) []Value {
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = BytesVal([]byte("stale bytes"))
		vs[i].kind, vs[i].num = Kind(i%9), 7
	}
	return vs
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// valuesIdentical compares every word of two value vectors (not just the
// ones the kind selects, so a stale word in a reused record shows; NaN
// payloads compare by bit pattern that way), string and buffer contents, and
// nil-ness of the vectors and of the pointer words (so a stale pointer under a
// kind that has none shows too).
func valuesIdentical(a, b []Value) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.kind != y.kind || x.num != y.num || x.n != y.n ||
			(x.ptr == nil) != (y.ptr == nil) {
			return false
		}
		if x.Str() != y.Str() || !bytes.Equal(x.Bytes(), y.Bytes()) {
			return false
		}
	}
	return true
}

func callsIdentical(a, b *Call) bool {
	return a.Seq == b.Seq && a.VM == b.VM && a.Func == b.Func && a.Flags == b.Flags &&
		a.Priority == b.Priority && a.Epoch == b.Epoch && a.Deadline == b.Deadline &&
		a.Stamps == b.Stamps && valuesIdentical(a.Args, b.Args)
}

func repliesIdentical(a, b *Reply) bool {
	return a.Seq == b.Seq && a.Status == b.Status && a.Stamps == b.Stamps && a.Err == b.Err &&
		valuesIdentical([]Value{a.Ret}, []Value{b.Ret}) && valuesIdentical(a.Outs, b.Outs)
}

func callsEqual(a, b *Call) bool {
	if a.Seq != b.Seq || a.VM != b.VM || a.Func != b.Func ||
		a.Flags != b.Flags || a.Priority != b.Priority || a.Epoch != b.Epoch ||
		a.Deadline != b.Deadline || a.Stamps != b.Stamps || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeReply checks DecodeReply against arbitrary bytes, including
// unknown Status values, which must round-trip unmodified. Every reply it
// accepts must also splice back from AppendReplySegments to the exact
// AppendReply encoding.
func FuzzDecodeReply(f *testing.F) {
	for _, rep := range []*Reply{
		{},
		{Seq: 3, Status: StatusAPIError, Err: "boom", Ret: Int(-1)},
		{Seq: 4, Status: Status(200), Ret: BytesVal([]byte("x")),
			Outs: []Value{Len(9), BytesVal(make([]byte, 64))}},
	} {
		enc := EncodeReply(rep)
		f.Add(enc)
		for _, cut := range truncations(enc) {
			f.Add(cut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(data)
		dirty := dirtyReply()
		derr := DecodeReplyInto(dirty, data)
		if !sameError(err, derr) {
			t.Fatalf("fresh decode error %v, reused-record decode error %v", err, derr)
		}
		if err != nil {
			return
		}
		if !repliesIdentical(rep, dirty) {
			t.Fatalf("reused record differs from fresh decode:\n  fresh:  %+v\n  reused: %+v", rep, dirty)
		}
		enc := AppendReply(nil, rep)
		for _, minSeg := range []int{1, 0} {
			frame, segs := AppendReplySegments(nil, nil, rep, minSeg)
			if len(frame) != ReplySegmentsSize(rep, minSeg) {
				t.Fatalf("minSeg %d: physical length %d, ReplySegmentsSize %d",
					minSeg, len(frame), ReplySegmentsSize(rep, minSeg))
			}
			if got := SpliceSegments(nil, frame, segs); !bytes.Equal(got, enc) {
				t.Fatalf("minSeg %d: spliced segmented encoding differs from AppendReply", minSeg)
			}
		}
		rep2, err := DecodeReply(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if rep.Seq != rep2.Seq || rep.Status != rep2.Status || rep.Err != rep2.Err ||
			rep.Stamps != rep2.Stamps || !rep.Ret.Equal(rep2.Ret) || len(rep.Outs) != len(rep2.Outs) {
			t.Fatalf("round-trip mismatch:\n  in:  %+v\n  out: %+v", rep, rep2)
		}
		for i := range rep.Outs {
			if !rep.Outs[i].Equal(rep2.Outs[i]) {
				t.Fatalf("out %d mismatch", i)
			}
		}
	})
}

// FuzzDecodeObjectDeltas checks the delta-checkpoint payload decoder
// against arbitrary bytes: no panics, every decoded range lies inside the
// input (the decoder aliases, it does not copy), and accepted payloads
// re-encode to a stable canonical form (EncodeObjectDeltas sorts by
// handle, so the check is idempotence after one normalization, not byte
// equality with the input).
func FuzzDecodeObjectDeltas(f *testing.F) {
	f.Add(EncodeObjectDeltas(nil))
	f.Add(EncodeObjectDeltas([]ObjectDelta{FullDelta(7, []byte("state"))}))
	f.Add(EncodeObjectDeltas([]ObjectDelta{
		{Handle: 9, BaseLen: 64, Ranges: []DeltaRange{
			{Off: 0, Bytes: []byte{1}}, {Off: 63, Bytes: []byte{2}},
		}},
		FullDelta(2, nil),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := DecodeObjectDeltas(data)
		if err != nil {
			return
		}
		for _, d := range ds {
			for _, r := range d.Ranges {
				if !within(data, r.Bytes) {
					t.Fatalf("handle %d: range at %d (%d bytes) does not lie inside the input", d.Handle, r.Off, len(r.Bytes))
				}
			}
		}
		enc := EncodeObjectDeltas(ds)
		ds2, err := DecodeObjectDeltas(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(ds2) != len(ds) {
			t.Fatalf("re-decode count %d, want %d", len(ds2), len(ds))
		}
		if enc2 := EncodeObjectDeltas(ds2); !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding not idempotent")
		}
		total := 0
		for _, d := range ds {
			total += d.DeltaBytes()
		}
		total2 := 0
		for _, d := range ds2 {
			total2 += d.DeltaBytes()
		}
		if total != total2 {
			t.Fatalf("payload bytes %d, want %d", total2, total)
		}
	})
}

// within reports whether b is a subslice of data: empty, or starting at one
// of data's bytes and ending inside it.
func within(data, b []byte) bool {
	if len(b) == 0 {
		return true
	}
	for i := range data {
		if &data[i] == &b[0] {
			return len(b) <= len(data)-i
		}
	}
	return false
}

// A delta payload's object count is bounded by what the payload can hold
// before anything is sized from it: four bytes claiming 65 536 objects
// used to reserve a ~3 MB slice ahead of the first truncation check. The
// frame is checked in as a seed.
func TestDecodeObjectDeltasCountBoundedByPayload(t *testing.T) {
	const claimed = 1 << 16
	frame := appendUint32(nil, claimed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeObjectDeltas(frame)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 64<<10 {
		t.Fatalf("4-byte frame claiming %d objects: err %v, %d bytes allocated", claimed, err, grew)
	}
}

// hostileCounts are frames whose u16 count claims 65 535 entries with none
// present: a call's argument vector, a reply's outputs, a batch's calls. Each
// is checked in as a seed of its decoder's fuzz target.
func hostileCounts() map[string][]byte {
	call := EncodeCall(&Call{Seq: 1})
	call[CallHeaderSize-2], call[CallHeaderSize-1] = 0xFF, 0xFF
	reply := EncodeReply(&Reply{Seq: 1})
	reply[len(reply)-2], reply[len(reply)-1] = 0xFF, 0xFF
	return map[string][]byte{"call": call, "reply": reply, "batch": {0xFF, 0xFF}}
}

// A count is bounded by what the rest of the frame can hold before anything
// is sized from it. The decoders used to make([]Value, 65535) — 6.3 MB at the
// old 96-byte Value, parked for good in whatever pooled record was being
// decoded into — from a 65-byte call or a 48-byte reply, and 1.5 MB of frame
// slices from a 2-byte batch, ahead of the first truncation check; the guard
// in front (count > 1<<16) could never fire for a u16.
//
// The bytes are measured the way testing.AllocsPerRun counts allocations —
// one processor, one warm-up decode, the mean of many — because TotalAlloc
// is process-wide: read around a single decode it also caught whatever
// another goroutine allocated meanwhile (5.5 KB once, under -race).
func TestDecodeCountsBoundedByFrame(t *testing.T) {
	frames := hostileCounts()
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"call", func() error { return DecodeCallInto(new(Call), frames["call"]) }},
		{"reply", func() error { return DecodeReplyInto(new(Reply), frames["reply"]) }},
		{"batch", func() error { _, err := DecodeBatchInto(nil, frames["batch"]); return err }},
	} {
		err := tc.decode()
		grew := allocBytesPerRun(100, func() { tc.decode() })
		if !errors.Is(err, ErrTruncated) || grew > 4<<10 {
			t.Errorf("%d-byte %s frame claiming 65535 entries: err %v, %d bytes allocated", len(frames[tc.name]), tc.name, err, grew)
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean TotalAlloc
// growth over runs calls of f, on one processor, after one warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// FuzzDecodeBatchInto is the batch splitter's differential check, as the
// Call and Reply decoders have: a fresh split (nil dst) and a split into a
// dirty reused dst must yield the same frames, or the same error; and an
// accepted batch re-encodes to the bytes it came from.
func FuzzDecodeBatchInto(f *testing.F) {
	calls := fuzzSeedCalls()
	for _, seed := range [][]byte{EncodeBatch(nil), EncodeBatch(calls[:1]), EncodeBatch(calls)} {
		f.Add(seed)
		for _, cut := range truncations(seed) {
			f.Add(cut)
		}
	}
	f.Add([]byte{0xFF, 0xFF}) // 65535 frames, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := DecodeBatchInto(nil, data)
		dirty := [][]byte{[]byte("stale"), nil, []byte("stale too")}
		reused, derr := DecodeBatchInto(dirty, data)
		if !sameError(err, derr) {
			t.Fatalf("fresh split error %v, reused-dst split error %v", err, derr)
		}
		if err != nil {
			return
		}
		if len(fresh) != len(reused) {
			t.Fatalf("fresh split has %d frames, reused-dst split %d", len(fresh), len(reused))
		}
		for i := range fresh {
			if !bytes.Equal(fresh[i], reused[i]) {
				t.Fatalf("frame %d: fresh %x, reused-dst %x", i, fresh[i], reused[i])
			}
		}
		if enc := EncodeBatch(fresh); !bytes.Equal(enc, data) {
			t.Fatalf("accepted batch %x re-encodes to %x", data, enc)
		}
	})
}

//go:build !race

package marshal

import "testing"

// Alloc budgets for the decode-into-a-reused-record path: a serve loop that
// hands the previous call's record back must decode without touching the
// heap. (Compiled out under -race, whose instrumentation allocates; `make
// allocs` runs it.)

func TestDecodeCallIntoAllocatesNothing(t *testing.T) {
	frame := EncodeCall(&Call{Seq: 1, Func: 2, Args: []Value{
		HandleVal(9), Uint(3), Uint(8), BytesVal([]byte{1, 2, 3, 4, 5, 6, 7, 8}), Len(64),
	}})
	var c Call
	if err := DecodeCallInto(&c, frame); err != nil { // first decode sizes Args
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := DecodeCallInto(&c, frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state DecodeCallInto allocates %v times per call, want 0", n)
	}
}

func TestDecodeReplyIntoAllocatesNothing(t *testing.T) {
	frame := EncodeReply(&Reply{Seq: 1, Ret: Int(0), Outs: []Value{HandleVal(4), BytesVal(make([]byte, 32))}})
	var rep Reply
	if err := DecodeReplyInto(&rep, frame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := DecodeReplyInto(&rep, frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state DecodeReplyInto allocates %v times per reply, want 0", n)
	}
}

func TestDecodeBatchIntoAllocatesNothing(t *testing.T) {
	frame := EncodeBatch([][]byte{EncodeCall(&Call{Seq: 1}), EncodeCall(&Call{Seq: 2})})
	calls, err := DecodeBatchInto(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if calls, err = DecodeBatchInto(calls, frame); err != nil || len(calls) != 2 {
			t.Fatal(len(calls), err)
		}
	}); n != 0 {
		t.Fatalf("steady-state DecodeBatchInto allocates %v times per frame, want 0", n)
	}
}

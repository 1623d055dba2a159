package transport

import (
	"ava/internal/leaktest"
	"bytes"
	"testing"
	"testing/quick"

	"ava/internal/marshal"
)

// TestQuickHeaderOverTransports round-trips randomized extended Call and
// Reply headers — including unknown future flag bits and status codes —
// over every transport. The wire format and the framing layer must both
// preserve the header verbatim (the forward-compatibility contract behind
// marshal.FlagsKnown: bits this version does not assign still survive the
// trip through an intermediary).
func TestQuickHeaderOverTransports(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		pm := pm
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			f := func(seq uint64, vm, fn uint32, flags uint16, pri uint8,
				deadline int64, stamps [4]int64, status uint8, payload []byte) bool {
				if len(payload) > 4096 {
					payload = payload[:4096] // stay well under the ring capacity
				}
				call := &marshal.Call{
					Seq: seq, VM: vm, Func: fn, Flags: flags,
					Priority: pri, Deadline: deadline,
					Stamps: marshal.Stamps{
						Encode: stamps[0], Admit: stamps[1],
						Dispatch: stamps[2], Done: stamps[3],
					},
					Args: []marshal.Value{marshal.BytesVal(payload)},
				}
				if err := a.Send(marshal.EncodeCall(call)); err != nil {
					return false
				}
				frame, err := b.Recv()
				if err != nil {
					return false
				}
				got, err := marshal.DecodeCall(frame)
				if err != nil {
					return false
				}
				if got.Seq != call.Seq || got.VM != call.VM || got.Func != call.Func ||
					got.Flags != call.Flags || got.Priority != call.Priority ||
					got.Deadline != call.Deadline || got.Stamps != call.Stamps {
					return false
				}
				if len(got.Args) != 1 || !bytes.Equal(got.Args[0].Bytes(), payload) {
					return false
				}

				// Reply path: arbitrary status bytes (unknown future codes
				// included) and the stamp block must survive too.
				rep := &marshal.Reply{
					Seq: seq, Status: marshal.Status(status), Ret: marshal.Uint(uint64(fn)),
					Stamps: marshal.Stamps{
						Encode: stamps[3], Admit: stamps[2],
						Dispatch: stamps[1], Done: stamps[0],
					},
				}
				if err := b.Send(marshal.EncodeReply(rep)); err != nil {
					return false
				}
				rframe, err := a.Recv()
				if err != nil {
					return false
				}
				rgot, err := marshal.DecodeReply(rframe)
				if err != nil {
					return false
				}
				return rgot.Seq == rep.Seq && rgot.Status == rep.Status &&
					rgot.Stamps == rep.Stamps && rgot.Ret.Equal(rep.Ret)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Package guesttest holds what tests of the guest library and of the
// generated bindings above it share: an endpoint that stands in for the whole
// stack. It is imported only from tests.
package guesttest

import (
	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/spec"
	"ava/internal/transport"
)

// What ServerOuts answers with.
const (
	OutHandle = 0x99 // an out element of handle kind
	OutScalar = 0x77 // any other out element
	OutFill   = 0xCD // every byte of an out buffer
	InOutFill = 0xEF // every byte of an inout buffer, on the way back
)

// ServerOuts returns an Echo.Outs that answers a call of desc's API the way a
// server would: null for an output the guest did not ask for, OutHandle or
// OutScalar for an element, the declared number of OutFill bytes for an out
// buffer (a bare length when it was passed as a registered region) and
// InOutFill bytes for an inout one. It allocates nothing once its scratch
// space has grown to the largest call it has answered.
func ServerOuts(desc *cava.Descriptor) func(*marshal.Call) []marshal.Value {
	var (
		outs []marshal.Value
		fill [2][]byte // OutFill, InOutFill
	)
	filled := func(which int, b byte, n int) marshal.Value {
		for len(fill[which]) < n {
			fill[which] = append(fill[which], b)
		}
		return marshal.BytesVal(fill[which][:n])
	}
	return func(c *marshal.Call) []marshal.Value {
		fd := desc.Funcs[c.Func]
		outs = outs[:0]
		for i := range fd.Params {
			switch pd, a := &fd.Params[i], c.Args[i]; {
			case !pd.Out():
			case a.IsNull():
				outs = append(outs, marshal.Null())
			case pd.IsElement && pd.Kind == spec.KindHandle:
				outs = append(outs, marshal.HandleVal(OutHandle))
			case pd.IsElement:
				outs = append(outs, marshal.Uint(OutScalar))
			case a.Kind() == marshal.KindRegRef:
				outs = append(outs, marshal.Len(a.Uint()))
			case a.Kind() == marshal.KindLen:
				outs = append(outs, filled(0, OutFill, int(a.Uint())))
			default:
				outs = append(outs, filled(1, InOutFill, len(a.Bytes())))
			}
		}
		return outs
	}
}

// Echo is a transport.Endpoint that stands in for the whole stack behind the
// guest library: it answers every synchronous call it is sent with a bare
// StatusOK reply and swallows asynchronous ones. It allocates nothing in steady state (decode
// targets are reused, reply frames come from the frame pool the library
// returns them to), so what a benchmark or alloc budget measures over it is
// the library alone. Frame ownership is the in-process transport's.
type Echo struct {
	replies chan []byte
	batch   [][]byte
	call    marshal.Call
	reply   marshal.Reply

	// Optional, for tests that look at what was sent or need outputs back:
	// Tap sees every decoded call (valid during the callback only) with its
	// frame; Outs supplies a synchronous call's Reply.Outs.
	Tap  func(c *marshal.Call, frame []byte)
	Outs func(c *marshal.Call) []marshal.Value
}

// NewEcho returns an Echo ready to hand to guest.New.
func NewEcho() *Echo { return &Echo{replies: make(chan []byte, 256)} }

func (e *Echo) Send(frame []byte) error {
	var err error
	if e.batch, err = marshal.DecodeBatchInto(e.batch, frame); err != nil {
		return err
	}
	for _, cf := range e.batch {
		if err := marshal.DecodeCallInto(&e.call, cf); err != nil {
			return err
		}
		if e.Tap != nil {
			e.Tap(&e.call, cf)
		}
		if e.call.Flags&marshal.FlagAsync != 0 {
			continue
		}
		e.reply = marshal.Reply{Seq: e.call.Seq, Ret: marshal.Int(0), Stamps: e.call.Stamps}
		if e.Outs != nil {
			e.reply.Outs = e.Outs(&e.call)
		}
		e.replies <- marshal.AppendReply(framebuf.Get(marshal.ReplySize(&e.reply)), &e.reply)
	}
	framebuf.Put(frame) // the receiver owns it, as the API server would
	return nil
}

// Inject delivers frame to the library as if the stack had sent it — a
// guardian's control notice, say.
func (e *Echo) Inject(frame []byte) { e.replies <- frame }

func (e *Echo) Recv() ([]byte, error) {
	f, ok := <-e.replies
	if !ok {
		return nil, transport.ErrClosed
	}
	return f, nil
}

func (e *Echo) Close() error     { close(e.replies); return nil }
func (e *Echo) SendCopies() bool { return false }
func (e *Echo) RecvOwned() bool  { return true }

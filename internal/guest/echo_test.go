package guest

import (
	"testing"

	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// echoEndpoint stands in for the whole stack behind the guest library: it
// answers every synchronous call it is sent with a bare StatusOK reply and
// swallows asynchronous ones. It allocates nothing in steady state (decode
// targets are reused, reply frames come from the frame pool the library
// returns them to), so what a benchmark or alloc budget measures over it is
// the library alone. Frame ownership is the in-process transport's.
type echoEndpoint struct {
	replies chan []byte
	batch   [][]byte
	call    marshal.Call
	reply   marshal.Reply
}

func newEchoEndpoint() *echoEndpoint { return &echoEndpoint{replies: make(chan []byte, 256)} }

func (e *echoEndpoint) Send(frame []byte) error {
	var err error
	if e.batch, err = marshal.DecodeBatchInto(e.batch, frame); err != nil {
		return err
	}
	for _, cf := range e.batch {
		if err := marshal.DecodeCallInto(&e.call, cf); err != nil {
			return err
		}
		if e.call.Flags&marshal.FlagAsync != 0 {
			continue
		}
		e.reply = marshal.Reply{Seq: e.call.Seq, Ret: marshal.Int(0), Stamps: e.call.Stamps}
		e.replies <- marshal.AppendReply(framebuf.Get(marshal.ReplySize(&e.reply)), &e.reply)
	}
	framebuf.Put(frame) // the receiver owns it, as the API server would
	return nil
}

func (e *echoEndpoint) Recv() ([]byte, error) {
	f, ok := <-e.replies
	if !ok {
		return nil, transport.ErrClosed
	}
	return f, nil
}

func (e *echoEndpoint) Close() error     { close(e.replies); return nil }
func (e *echoEndpoint) SendCopies() bool { return false }
func (e *echoEndpoint) RecvOwned() bool  { return true }

// BenchmarkLibCall measures the guest library's per-call path alone, against
// an echo endpoint: an asynchronously forwarded (batched) call, and a
// synchronous round trip including the demultiplexer hand-off.
func BenchmarkLibCall(b *testing.B) {
	desc := cava.MustCompile(testSpec)
	dev := marshal.Handle(1)
	b.Run("async-batched", func(b *testing.B) {
		lib := New(desc, newEchoEndpoint())
		defer lib.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lib.Call("scale", dev, 2.0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sync", func(b *testing.B) {
		lib := New(desc, newEchoEndpoint())
		defer lib.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lib.Call("closeDevice", dev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

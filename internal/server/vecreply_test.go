package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/guest"
	"ava/internal/leaktest"
	"ava/internal/server"
	"ava/internal/transport"
)

const vecSpec = `
api "vectest";
const OK = 0;
type st = int32_t { success(OK); };
st fill(size_t size, void *out) { parameter(out) { out; buffer(size); } }
st flip(size_t size, void *buf) { parameter(buf) { inout; buffer(size); } }
`

// vecEnd is an in-process endpoint with a vectored send, as the TCP
// endpoint has. Each SendVec records how many bytes the sender had put in
// its own frame and how many it borrowed, and delivers the spliced frame.
// Before splicing, it draws and scribbles over pooled buffers of the
// borrowed parts' sizes: a borrowed buffer recycled before its send
// returned would be handed out here and arrive scribbled.
type vecEnd struct {
	transport.Endpoint
	mu       sync.Mutex
	physical []int // per SendVec: bytes of the sender's own frame
	borrowed []int // per SendVec: bytes of its borrowed segments
}

func (e *vecEnd) Send(frame []byte) error {
	return e.Endpoint.Send(append([]byte(nil), frame...)) // the sender keeps frame
}

func (e *vecEnd) SendVec(parts [][]byte, total int) error {
	phys, borrowed := 0, 0
	for i, p := range parts {
		if i%2 == 0 {
			phys += len(p)
			continue
		}
		borrowed += len(p)
		for _, n := range []int{len(p), len(p) + 1} {
			junk := framebuf.GetLen(n)
			for j := range junk {
				junk[j] = 0xEE
			}
			framebuf.Put(junk)
		}
	}
	var frame []byte
	for _, p := range parts {
		frame = append(frame, p...)
	}
	if len(frame) != total {
		return fmt.Errorf("SendVec: parts sum to %d bytes, total says %d", len(frame), total)
	}
	e.mu.Lock()
	e.physical = append(e.physical, phys)
	e.borrowed = append(e.borrowed, borrowed)
	e.mu.Unlock()
	return e.Endpoint.Send(frame)
}

func (e *vecEnd) SendCopies() bool { return true }
func (e *vecEnd) RecvOwned() bool  { return true }

// A reply to a vectored endpoint carries its large outputs as borrowed
// segments: the reply frame the server fills holds the header and small
// values only, whatever the size of the data, and the data arrives byte for
// byte from the handler's out buffer (out) or the batch frame (inout),
// neither of which is recycled before the send returns.
func TestVectoredReplyBorrowsLargeOutputs(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(vecSpec)
	reg := server.NewRegistry(desc)
	reg.MustRegister("fill", func(inv *server.Invocation) error {
		out := inv.Bytes(1)
		for i := range out {
			out[i] = byte(i * 7)
		}
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("flip", func(inv *server.Invocation) error {
		buf := inv.Bytes(1)
		for i := range buf {
			buf[i] ^= 0xFF
		}
		inv.SetStatus(0)
		return nil
	})
	srv := server.New(reg)
	guestEP, serverEP := transport.NewInProc()
	ve := &vecEnd{Endpoint: serverEP}
	served := make(chan error, 1)
	go func() { served <- srv.ServeVM(srv.Context(1, "vm"), ve) }()
	lib := guest.New(desc, guestEP)
	defer func() {
		lib.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeVM: %v", err)
		}
	}()

	const size = 64 << 10
	got := make([]byte, size)
	if _, err := lib.Call("fill", uint64(size), got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i*7) {
			t.Fatalf("fill: byte %d is %#x, want %#x", i, got[i], byte(i*7))
		}
	}
	// A reply with nothing worth borrowing is copied whole, so its batch
	// frame is released before the send, not held across it.
	small := make([]byte, 256)
	if _, err := lib.Call("fill", uint64(len(small)), small); err != nil || small[255] != byte(255*7%256) {
		t.Fatalf("small fill: err %v, last byte %#x", err, small[255])
	}
	buf, want := make([]byte, size), make([]byte, size)
	for i := range buf {
		buf[i], want[i] = byte(i), ^byte(i)
	}
	if _, err := lib.Call("flip", uint64(size), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("flip: the inout buffer came back altered beyond the handler's flip")
	}

	ve.mu.Lock()
	defer ve.mu.Unlock()
	large := 0
	for i, phys := range ve.physical {
		if phys >= 1<<10 {
			t.Errorf("reply %d: the server filled a %d-byte frame", i, phys)
		}
		if ve.borrowed[i] == size {
			large++
		}
	}
	if large != 2 || len(ve.borrowed) != 2 {
		t.Errorf("vectored replies borrowed %v bytes, want [%d %d] (fill and flip; the small fill is sent whole)", ve.borrowed, size, size)
	}
}

//go:build !race

package transport

import (
	"bytes"
	"testing"

	"ava/internal/framebuf"
	"ava/internal/leaktest"
)

// Alloc budget for the TCP endpoint: a frame sent, sent vectored, and
// received over a loopback connection allocates nothing — the length headers
// and the iovec live in the endpoint, the receive buffer comes from (and here
// goes back to) the frame pool. As locals escaping through net.Conn the
// header, the net.Buffers value and its backing array cost a Send 3, a
// SendVec 3 and a Recv 1. (Compiled out under -race; `make allocs` runs it.)
func TestConnEndAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	// Small enough that a send completes into the socket buffer with nobody
	// reading yet; what the endpoint allocates does not depend on the size.
	frame := bytes.Repeat([]byte{0xA7}, 4<<10)
	parts := [][]byte{frame[:100], frame[100:3000], nil, frame[3000:]}
	vec := a.(VectoredSender)
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send + Recv", func() error { return a.Send(frame) }},
		{"SendVec + Recv", func() error { return vec.SendVec(parts, len(frame)) }},
	} {
		roundTrip := func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv()
			if err != nil || !bytes.Equal(got, frame) {
				t.Fatalf("%s: received %d bytes, err %v", tc.name, len(got), err)
			}
			framebuf.Put(got)
		}
		roundTrip()
		if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
			t.Errorf("%s over TCP loopback allocates %v times per frame, want 0", tc.name, n)
		}
	}
	if e := a.(*connEnd); e.sendVec != nil || e.sendIov[0] != nil || e.sendIov[1] != nil {
		t.Error("an idle endpoint still references the last frame it sent")
	}
}

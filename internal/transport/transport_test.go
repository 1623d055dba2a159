package transport

import (
	"ava/internal/leaktest"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// pairMaker builds a connected endpoint pair for table-driven tests.
type pairMaker struct {
	name string
	make func(t *testing.T) (Endpoint, Endpoint, func())
}

func allPairs() []pairMaker {
	return []pairMaker{
		{"inproc", func(t *testing.T) (Endpoint, Endpoint, func()) {
			a, b := NewInProc()
			return a, b, func() { a.Close(); b.Close() }
		}},
		{"ring", func(t *testing.T) (Endpoint, Endpoint, func()) {
			a, b := NewRing(1 << 16)
			return a, b, func() { a.Close(); b.Close() }
		}},
		{"tcp", func(t *testing.T) (Endpoint, Endpoint, func()) {
			l, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var (
				srv Endpoint
				wg  sync.WaitGroup
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv, err = l.Accept()
			}()
			cli, derr := Dial(l.Addr())
			if derr != nil {
				t.Fatal(derr)
			}
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			return cli, srv, func() { cli.Close(); srv.Close(); l.Close() }
		}},
	}
}

func TestSendRecvSingleFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			want := []byte("hello accelerator")
			if err := a.Send(want); err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestBidirectional(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			if err := a.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if f, err := b.Recv(); err != nil || string(f) != "ping" {
				t.Fatalf("recv %q %v", f, err)
			}
			if err := b.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			if f, err := a.Recv(); err != nil || string(f) != "pong" {
				t.Fatalf("recv %q %v", f, err)
			}
		})
	}
}

func TestOrderingPreserved(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			const n = 500
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := a.Send([]byte(fmt.Sprintf("frame-%04d", i))); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				f, err := b.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
					t.Fatalf("frame %d = %q, want %q", i, f, want)
				}
			}
			wg.Wait()
		})
	}
}

func TestEmptyFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			if err := a.Send(nil); err != nil {
				t.Fatal(err)
			}
			f, err := b.Recv()
			if err != nil || len(f) != 0 {
				t.Fatalf("empty frame: %v %v", f, err)
			}
		})
	}
}

func TestLargeFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			want := make([]byte, 48000) // near but under the ring capacity
			for i := range want {
				want[i] = byte(i * 31)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.Send(want); err != nil {
					t.Errorf("send: %v", err)
				}
			}()
			got, err := b.Recv()
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("large frame corrupted")
			}
		})
	}
}

func TestSenderBufferReusableAfterSend(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Ring and TCP endpoints copy at Send, so the sender may reuse its
	// buffer. InProc transfers ownership (zero-copy hypercall page) and is
	// excluded: its senders must encode into a fresh buffer per frame, as
	// every AvA component does.
	for _, pm := range allPairs() {
		if pm.name == "inproc" {
			continue
		}
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			buf := []byte("original")
			if err := a.Send(buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "CLOBBER!")
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "original" {
				t.Fatalf("frame aliased sender buffer: %q", got)
			}
		})
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			errc := make(chan error, 1)
			go func() {
				_, err := b.Recv()
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			a.Close()
			b.Close()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("Recv returned nil after close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not unblock on close")
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, pm := range allPairs() {
		t.Run(pm.name, func(t *testing.T) {
			a, b, done := pm.make(t)
			defer done()
			a.Close()
			b.Close()
			// TCP may need a moment for the close to be observable.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if err := a.Send([]byte("x")); err != nil {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("Send kept succeeding after close")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestRingBackpressure(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewRing(256)
	// Fill beyond capacity; sender must block, then drain.
	sent := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 64; i++ {
			if err := a.Send(make([]byte, 32)); err != nil {
				break
			}
			n++
		}
		sent <- n
	}()
	select {
	case <-sent:
		t.Fatal("sender never blocked on a full ring")
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < 64; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if n := <-sent; n != 64 {
		t.Fatalf("sent %d frames", n)
	}
}

func TestRingFrameTooLarge(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, _ := NewRing(128)
	if err := a.Send(make([]byte, 1024)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestRingWrapAround(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewRing(100)
	// Frames sized to force the ring to wrap repeatedly.
	for i := 0; i < 200; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 30)
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("iteration %d corrupted: %v", i, got)
		}
	}
}

func TestTCPPeerCloseUnblocksRecv(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		srv.Close()
	}()
	cli, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// Property: any sequence of frames survives a ring transit byte-for-byte in
// order.
func TestQuickRingRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := func(frames [][]byte) bool {
		a, b := NewRing(1 << 15)
		defer a.Close()
		defer b.Close()
		ok := true
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, fr := range frames {
				if len(fr) > 1<<12 {
					fr = fr[:1<<12]
				}
				if err := a.Send(fr); err != nil {
					ok = false
					return
				}
			}
		}()
		for _, fr := range frames {
			want := fr
			if len(want) > 1<<12 {
				want = want[:1<<12]
			}
			got, err := b.Recv()
			if err != nil || !bytes.Equal(got, want) {
				ok = false
				break
			}
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func benchPair(b *testing.B, make func() (Endpoint, Endpoint, func()), size int) {
	b.Helper()
	a, bb, done := make()
	defer done()
	payload := bytes.Repeat([]byte{0xA5}, size)
	go func() {
		for {
			f, err := bb.Recv()
			if err != nil {
				return
			}
			if err := bb.Send(f); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInProcEcho64(b *testing.B) {
	benchPair(b, func() (Endpoint, Endpoint, func()) {
		x, y := NewInProc()
		return x, y, func() { x.Close(); y.Close() }
	}, 64)
}

func BenchmarkRingEcho64(b *testing.B) {
	benchPair(b, func() (Endpoint, Endpoint, func()) {
		x, y := NewRing(1 << 16)
		return x, y, func() { x.Close(); y.Close() }
	}, 64)
}

func BenchmarkRingEcho4K(b *testing.B) {
	benchPair(b, func() (Endpoint, Endpoint, func()) {
		x, y := NewRing(1 << 16)
		return x, y, func() { x.Close(); y.Close() }
	}, 4096)
}

func BenchmarkTCPEcho4K(b *testing.B) {
	benchPair(b, func() (Endpoint, Endpoint, func()) {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		var srv Endpoint
		accepted := make(chan struct{})
		go func() {
			srv, _ = l.Accept()
			close(accepted)
		}()
		cli, err := Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		<-accepted
		return cli, srv, func() { cli.Close(); srv.Close(); l.Close() }
	}, 4096)
}

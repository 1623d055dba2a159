package transport

import (
	"ava/internal/leaktest"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// Severed links must be distinguishable from orderly closes on every
// transport: failover detection keys on ErrSevered.

func TestInProcSever(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if err := Sever(a); err != nil {
		t.Fatal(err)
	}
	// Queued frames are lost with the "dead" peer; both ends sever.
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("peer Recv after sever: err=%v, want ErrSevered", err)
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrSevered) {
		t.Fatalf("Send after sever: err=%v, want ErrSevered", err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("own Recv after sever: err=%v, want ErrSevered", err)
	}
}

func TestInProcCloseStaysOrderly(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	if err := a.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Orderly close still drains queued frames, then reports ErrClosed.
	if f, err := b.Recv(); err != nil || string(f) != "last" {
		t.Fatalf("Recv after close: %q, %v", f, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv at end: err=%v, want ErrClosed", err)
	}
}

func TestRingSever(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewRing(1 << 12)
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if err := Sever(b); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("Recv after sever: err=%v, want ErrSevered", err)
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrSevered) {
		t.Fatalf("Send after sever: err=%v, want ErrSevered", err)
	}
}

func TestRingSeverWakesBlockedReceiver(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewRing(1 << 12)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the receiver park
	Sever(a)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSevered) {
			t.Fatalf("blocked Recv woke with %v, want ErrSevered", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Recv not woken by sever")
	}
}

func tcpPair(t *testing.T) (Endpoint, Endpoint) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed := make(chan Endpoint, 1)
	go func() {
		ep, err := Dial(l.Addr())
		if err != nil {
			panic(err)
		}
		dialed <- ep
	}()
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return <-dialed, accepted
}

func TestTCPSeverYieldsErrSevered(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := tcpPair(t)
	defer b.Close()
	if err := Sever(a); err != nil {
		t.Fatal(err)
	}
	// The RST may need a beat to arrive; the resulting error must be
	// ErrSevered (ECONNRESET), never a clean ErrClosed.
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("Recv after peer sever: err=%v, want ErrSevered", err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("own Recv after sever: err=%v, want ErrSevered", err)
	}
}

func TestTCPMidFrameDeathYieldsErrSevered(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Announce an 8-byte frame but die after 3 payload bytes: a
		// mid-frame death even though the FIN itself is "clean".
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 8)
		c.Write(hdr[:])
		c.Write([]byte{1, 2, 3})
		c.Close()
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ep := NewConn(c)
	defer ep.Close()
	if _, err := ep.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("mid-frame death: err=%v, want ErrSevered", err)
	}
}

func TestTCPCleanCloseYieldsErrClosed(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := tcpPair(t)
	if err := a.Send([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if f, err := b.Recv(); err != nil || string(f) != "bye" {
		t.Fatalf("Recv before close: %q, %v", f, err)
	}
	// EOF exactly at a frame boundary is an orderly shutdown.
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv at clean EOF: err=%v, want ErrClosed", err)
	}
}

func TestFlakySeverAfterSends(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	f := NewFlaky(a, FlakyConfig{SeverAfterSends: 2})
	for i := 0; i < 2; i++ {
		if err := f.Send([]byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Send([]byte("boom")); !errors.Is(err, ErrSevered) {
		t.Fatalf("send past sever budget: err=%v, want ErrSevered", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("peer after scripted sever: err=%v, want ErrSevered", err)
	}
}

func TestFlakyDropAfterSendsGoesSilent(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	defer b.Close() // ends the receiver parked on the frame that never comes
	f := NewFlaky(a, FlakyConfig{DropAfterSends: 1})
	if err := f.Send([]byte("heard")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte("lost")); err != nil {
		t.Fatalf("silent drop must not error: %v", err)
	}
	if fr, err := b.Recv(); err != nil || string(fr) != "heard" {
		t.Fatalf("first frame: %q, %v", fr, err)
	}
	select {
	case fr := <-func() chan []byte {
		ch := make(chan []byte, 1)
		go func() {
			if fr, err := b.Recv(); err == nil {
				ch <- fr
			}
		}()
		return ch
	}():
		t.Fatalf("dropped frame delivered: %q", fr)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestFlakyDropScheduleIsSeeded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	schedule := func() []bool {
		a, _ := NewInProc()
		f := NewFlaky(a, FlakyConfig{Seed: 42, DropProb: 0.5})
		var drops []bool
		for i := 0; i < 64; i++ {
			f.mu.Lock()
			drops = append(drops, f.rng.Float64() < 0.5)
			f.mu.Unlock()
		}
		return drops
	}
	s1, s2 := schedule(), schedule()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fault schedule diverged at %d with identical seeds", i)
		}
	}
}

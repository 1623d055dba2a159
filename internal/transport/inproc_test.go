package transport

import (
	"ava/internal/leaktest"
	"errors"
	"fmt"
	"testing"
	"time"
)

// The in-process pair is a mutex+cond queue per direction; these tests pin
// its Close (drain, then ErrClosed) and Sever (drop, ErrSevered on both ends)
// contracts at the queue's edges: full, empty, and with a parked peer.

func TestInProcFramesQueuedBeforePeerCloseAreDelivered(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	for i := 0; i < inprocDepth; i++ { // a full queue
		if err := a.Send([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < inprocDepth; i++ {
		f, err := b.Recv()
		if err != nil || string(f) != fmt.Sprint(i) {
			t.Fatalf("frame %d after peer close: %q, %v", i, f, err)
		}
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after the drain: err=%v, want ErrClosed", err)
	}
	if err := b.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to a closed peer: err=%v, want ErrClosed", err)
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on a closed end: err=%v, want ErrClosed", err)
	}
}

func TestInProcFramesQueuedBeforeSeverAreNot(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	for i := 0; i < inprocDepth; i++ {
		if err := a.Send([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send([]byte("doomed too")); err != nil {
		t.Fatal(err)
	}
	Sever(b)
	for _, ep := range []Endpoint{a, b} {
		if f, err := ep.Recv(); !errors.Is(err, ErrSevered) {
			t.Fatalf("Recv after sever: %q, %v, want ErrSevered", f, err)
		}
		if err := ep.Send([]byte("x")); !errors.Is(err, ErrSevered) {
			t.Fatalf("Send after sever: err=%v, want ErrSevered", err)
		}
	}
	// A later orderly Close does not launder the cut into an ErrClosed.
	a.Close()
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("Recv after sever+close: err=%v, want ErrSevered", err)
	}
}

func TestInProcOwnCloseFailsOwnRecv(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	if err := a.Send([]byte("unread")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on a closed end: err=%v, want ErrClosed", err)
	}
}

// A Send parked on a full queue and a Recv parked on an empty one are both
// woken by the peer's Close and by a Sever.
func TestInProcShutdownWakesParkedPeers(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, tc := range []struct {
		name string
		shut func(Endpoint)
		want error
	}{
		{"close", func(ep Endpoint) { ep.Close() }, ErrClosed},
		{"sever", func(ep Endpoint) { Sever(ep) }, ErrSevered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewInProc()
			for i := 0; i < inprocDepth; i++ {
				if err := a.Send(nil); err != nil {
					t.Fatal(err)
				}
			}
			errs := make(chan error, 2)
			go func() { errs <- a.Send([]byte("one too many")) }() // parks: queue full
			go func() { _, err := a.Recv(); errs <- err }()        // parks: nothing queued
			time.Sleep(5 * time.Millisecond)
			tc.shut(b)
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, tc.want) {
						t.Fatalf("parked call woke with %v, want %v", err, tc.want)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("parked call not woken")
				}
			}
		})
	}
}

// Backpressure: a full queue blocks Send until the peer receives, and the
// frames still arrive in order.
func TestInProcFullQueueBackpressure(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a, b := NewInProc()
	defer a.Close()
	defer b.Close()
	const total = 4 * inprocDepth
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		f, err := b.Recv()
		if err != nil || len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d: %v, %v", i, f, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

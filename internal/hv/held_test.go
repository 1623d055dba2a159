package hv

import (
	"testing"
	"time"

	"ava/internal/clock"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// What the router reads the clock for: one arrival reading per frame, and one
// more for each call it held. These tests pin the stamps and stalls that
// follow from that.

// sendFrame sends calls as one batch frame and collects the replies of its
// synchronous calls.
func sendFrame(t *testing.T, ep transport.Endpoint, syncCalls int, calls ...[]byte) {
	t.Helper()
	if err := ep.Send(marshal.EncodeBatch(calls)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < syncCalls; i++ {
		rf, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := marshal.DecodeReply(rf)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != marshal.StatusOK {
			t.Fatalf("reply %d = %+v", i, rep)
		}
	}
}

// Every call in a frame arrived together, so a frame of calls the router
// did not hold carries one admit stamp — the frame's arrival reading — on
// all of them, and none of them stalled.
func TestRouterUnheldFrameSharesOneAdmitStamp(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil) // wall clock, FIFO, no rate limits
	if err := r.RegisterVM(VMConfig{ID: 1}); err != nil {
		t.Fatal(err)
	}
	ep, echo := routedStack(t, r, 1)
	const n = 5
	calls := make([][]byte, 0, n)
	for i := uint64(1); i < n; i++ {
		calls = append(calls, encCall(desc, i, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)))
	}
	calls = append(calls, encCall(desc, n, "ping", 0, marshal.Uint(1)))
	sendFrame(t, ep, 1, calls...)

	if echo.count() != n {
		t.Fatalf("server saw %d calls, want %d", echo.count(), n)
	}
	admit := echo.call(0).Stamps.Admit
	if admit == 0 {
		t.Fatal("forwarded call carries no admit stamp")
	}
	for i := 1; i < n; i++ {
		if got := echo.call(i).Stamps.Admit; got != admit {
			t.Errorf("call %d admitted at %d, call 0 at %d: one frame, one arrival reading", i, got, admit)
		}
	}
	if st, _ := r.Stats(1); st.Stall != 0 || st.Forwarded != n {
		t.Fatalf("stats = %+v, want %d forwarded with no stall", st, n)
	}
}

// A call held by a token bucket is admitted at its release: its admit stamp
// is the reading taken after the sleep, and that reading is the arrival of
// the frame's later calls, which queued behind it. Reserving them against the
// frame's first reading instead would charge the held call's delay twice.
func TestRouterBucketHeldCallAdmitsAtRelease(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	// One call per 10 s, burst 1, all of it in band 0.
	if err := r.RegisterVM(VMConfig{
		ID: 1, CallsPerSec: 0.1, CallBurst: 1,
		PriorityShares: [NumPriorityBands]float64{1, 0, 0, 0},
	}); err != nil {
		t.Fatal(err)
	}
	ep, echo := routedStack(t, r, 1)
	t0 := clk.Now()
	sendFrame(t, ep, 3,
		encCall(desc, 1, "ping", 0, marshal.Uint(1)),
		encCall(desc, 2, "ping", 0, marshal.Uint(2)),
		encCall(desc, 3, "ping", 0, marshal.Uint(3)))

	for i, want := range []time.Time{t0, t0.Add(10 * time.Second), t0.Add(20 * time.Second)} {
		if got := echo.call(i).Stamps.Admit; got != want.UnixNano() {
			t.Errorf("call %d admitted at t0%+v, want t0%+v", i, time.Duration(got-t0.UnixNano()), want.Sub(t0))
		}
	}
	// The second call stalled 10 s, the third another 10 s from its own
	// arrival behind the second.
	if st, _ := r.Stats(1); st.Stall != 20*time.Second {
		t.Fatalf("stall = %v, want 20s", st.Stall)
	}
}

// FairScheduler.Admit reports parked exactly when it waited on its
// condition: never uncontended or within the window, always for a leader
// held back behind a contender.
func TestFairSchedulerReportsParked(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewFairScheduler(100)
	for i := 0; i < 100; i++ { // VM 1 runs ahead uncontended: usage 1000
		if s.Admit(1, 10, 0) {
			t.Fatal("uncontended Admit reported parked")
		}
		s.Done(1, 10, 0)
	}
	if s.Admit(2, 10, 0) { // VM 2 contends, behind: admitted at once
		t.Fatal("laggard's Admit reported parked")
	}
	parked := make(chan bool)
	go func() { parked <- s.Admit(1, 10, 0) }()
	// VM 1 counts as waiting, and has let go of the lock, only once it is
	// inside cond.Wait.
	for {
		s.mu.Lock()
		waiting := s.vms[1].waiting
		s.mu.Unlock()
		if waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Done(2, 10, 0) // the contender goes idle: VM 1 is released
	if !<-parked {
		t.Fatal("held-back leader's Admit reported not parked")
	}
	s.Done(1, 10, 0)
}

// PriorityScheduler.Admit reports parked exactly when the gate did not grant
// the call at once.
func TestPrioritySchedulerReportsParked(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewPriorityScheduler(clock.NewVirtual(), 0)
	if s.Admit(1, 1, 0) { // the gate is free
		t.Fatal("Admit at a free gate reported parked")
	}
	parked := make(chan bool)
	go func() { parked <- s.Admit(2, 1, 255) }()
	for s.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	s.Done(1, 1, 0) // opens the gate to VM 2
	if !<-parked {
		t.Fatal("Admit behind a held gate reported not parked")
	}
	s.Done(2, 1, 0)
	if s.Admit(1, 1, 0) {
		t.Fatal("Admit at a reopened gate reported parked")
	}
	s.Done(1, 1, 0)
}

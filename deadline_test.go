package ava_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ava"
	"ava/internal/clock"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/server"
)

const deadlineSpec = `
const OK = 0;
type st = int32_t { success(OK); };
st ping(uint32_t v) { }
st slow(uint32_t v) { }
`

// deadlineStack is a full guest→router→server deployment on one virtual
// clock: the same time source drives guest stamping and fail-fast, router
// admission and stall accounting, and the server's abort timers.
type deadlineStack struct {
	stack   *ava.Stack
	clk     *clock.Virtual
	pings   atomic.Uint64
	started chan struct{} // signaled when the slow handler begins waiting
	release chan struct{} // lets a parked slow handler finish normally
}

func newDeadlineStack(t *testing.T, opts ...ava.Option) *deadlineStack {
	t.Helper()
	desc, err := ava.CompileSpec(deadlineSpec)
	if err != nil {
		t.Fatal(err)
	}
	ds := &deadlineStack{
		clk:     clock.NewVirtual(),
		started: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	reg := server.NewRegistry(desc)
	reg.MustRegister("ping", func(v *server.Invocation) error {
		ds.pings.Add(1)
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("slow", func(v *server.Invocation) error {
		ds.started <- struct{}{}
		select {
		case <-v.Done():
			return v.Err()
		case <-ds.release:
			v.SetStatus(0)
			return nil
		}
	})
	ds.stack = ava.NewStack(desc, reg, append([]ava.Option{ava.WithClock(ds.clk)}, opts...)...)
	t.Cleanup(ds.stack.Close)
	return ds
}

func wantDeadlineErr(t *testing.T, err error) *guest.APIError {
	t.Helper()
	if !errors.Is(err, ava.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	var apiErr *guest.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *guest.APIError", err)
	}
	return apiErr
}

// An expired call must be denied at the router — it never reaches the
// silo. The second call's 50ms budget is consumed by a ~100ms rate-limit
// stall (burst 1 at 10 calls/sec on the virtual clock), so the router
// rejects it with StatusDeadline after charging the stall.
func TestStackRouterDeniesExpiredDeadline(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ds := newDeadlineStack(t)
	lib, err := ds.stack.AttachVM(ava.VMConfig{
		ID: 1, Name: "vm1", CallsPerSec: 10, CallBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.CallWith(ava.CallOptions{Timeout: time.Second}, "ping", uint32(1)); err != nil {
		t.Fatal(err)
	}
	_, err = lib.CallWith(ava.CallOptions{Timeout: 50 * time.Millisecond}, "ping", uint32(2))
	apiErr := wantDeadlineErr(t, err)
	if apiErr.Status != marshal.StatusDeadline {
		t.Fatalf("status = %v, want StatusDeadline", apiErr.Status)
	}
	if got := ds.pings.Load(); got != 1 {
		t.Fatalf("silo ran %d pings, want 1 (expired call must not reach it)", got)
	}
	vs, err := ds.stack.Router.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if vs.DeadlineDenied != 1 {
		t.Fatalf("router DeadlineDenied = %d, want 1", vs.DeadlineDenied)
	}
}

// An in-flight call that outlives its budget is aborted at the server: the
// dispatcher's timer fires on the virtual clock, the cancellation signal
// reaches the parked handler through Invocation.Done, and the guest gets
// StatusDeadline.
func TestStackInFlightCallAborts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ds := newDeadlineStack(t)
	lib, err := ds.stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := lib.CallWith(ava.CallOptions{Timeout: 50 * time.Millisecond}, "slow", uint32(1))
		errc <- err
	}()
	<-ds.started // the handler is parked on Done(); now burn the budget
	var callErr error
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		ds.clk.Advance(10 * time.Millisecond)
		select {
		case callErr = <-errc:
			done = true
		case <-deadline:
			t.Fatal("call did not abort after its deadline")
		case <-time.After(time.Millisecond):
		}
	}
	apiErr := wantDeadlineErr(t, callErr)
	if apiErr.Status != marshal.StatusDeadline {
		t.Fatalf("status = %v, want StatusDeadline", apiErr.Status)
	}
	if st := ds.stack.Context(1).Stats(); st.DeadlineAborts != 1 {
		t.Fatalf("server DeadlineAborts = %d, want 1", st.DeadlineAborts)
	}
}

// A deadline that has already passed fails in the guest before any
// marshalling: nothing is forwarded, nothing reaches the router or silo.
func TestStackGuestFailsFast(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ds := newDeadlineStack(t)
	lib, err := ds.stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	past := ds.clk.Now().Add(-time.Millisecond)
	_, err = lib.CallWith(ava.CallOptions{Deadline: past}, "ping", uint32(1))
	if !errors.Is(err, ava.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if st := lib.Stats(); st.DeadlineFailFast != 1 {
		t.Fatalf("DeadlineFailFast = %d, want 1", st.DeadlineFailFast)
	}
	vs, err := ds.stack.Router.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Forwarded != 0 {
		t.Fatalf("router forwarded %d calls, want 0", vs.Forwarded)
	}
	if got := ds.pings.Load(); got != 0 {
		t.Fatalf("silo ran %d pings, want 0", got)
	}
}

// A stack configured with the priority scheduler serves prioritized calls
// end to end; strict ordering under contention is pinned down by the
// scheduler's own virtual-clock tests in internal/hv.
func TestStackPrioritySchedulerSmoke(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	desc, err := ava.CompileSpec(deadlineSpec)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry(desc)
	reg.MustRegister("ping", func(v *server.Invocation) error {
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("slow", func(v *server.Invocation) error {
		v.SetStatus(0)
		return nil
	})
	stack := ava.NewStack(desc, reg,
		ava.WithClock(clk),
		ava.WithScheduler(hv.NewPriorityScheduler(clk, 10*time.Millisecond)))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"}, guest.WithPriority(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := lib.CallWith(ava.CallOptions{Priority: uint8(i)}, "ping", uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lib.Call("ping", uint32(9)); err != nil {
		t.Fatal(err)
	}
}

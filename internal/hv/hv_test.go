package hv

import (
	"ava/internal/leaktest"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/marshal"
	"ava/internal/transport"
)

const hvSpec = `
api "hvtest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

st ping(uint32_t x);
st push(size_t size, const void *data) {
  parameter(data) { in; buffer(size); }
  resource(bandwidth, size);
}
st launch(size_t global, size_t local) {
  async;
  resource(device_time, global / local);
}
`

func hvDesc() *cava.Descriptor { return cava.MustCompile(hvSpec) }

func encCall(desc *cava.Descriptor, seq uint64, name string, flags uint16, args ...marshal.Value) []byte {
	fd, ok := desc.Lookup(name)
	if !ok {
		panic(name)
	}
	return marshal.EncodeCall(&marshal.Call{Seq: seq, Func: fd.ID, Flags: flags, Args: args})
}

// --- TokenBucket ---

func TestTokenBucketUnlimited(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	tb := NewTokenBucket(0, 0, clock.NewVirtual())
	if !tb.Unlimited() {
		t.Fatal("zero-rate bucket should be unlimited")
	}
	if d := tb.Reserve(1e9); d != 0 {
		t.Fatalf("unlimited Reserve = %v", d)
	}
	var nilTB *TokenBucket
	if !nilTB.Unlimited() {
		t.Fatal("nil bucket should be unlimited")
	}
}

func TestTokenBucketBurstThenDelay(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	tb := NewTokenBucket(10, 5, clk) // 10/s, burst 5
	for i := 0; i < 5; i++ {
		if d := tb.Reserve(1); d != 0 {
			t.Fatalf("burst token %d delayed %v", i, d)
		}
	}
	d := tb.Reserve(1)
	if d != 100*time.Millisecond {
		t.Fatalf("6th token delay = %v, want 100ms", d)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	tb := NewTokenBucket(10, 5, clk)
	tb.Reserve(5)
	clk.Advance(time.Second)
	if got := tb.Tokens(); got < 4.99 || got > 5.01 {
		t.Fatalf("tokens after refill = %v", got)
	}
	// Refill caps at burst.
	clk.Advance(10 * time.Second)
	if got := tb.Tokens(); got > 5.01 {
		t.Fatalf("tokens exceeded burst: %v", got)
	}
}

func TestTokenBucketWaitSleepsOnClock(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	tb := NewTokenBucket(1, 1, clk)
	t0 := clk.Now()
	tb.Wait(1) // burst
	tb.Wait(1) // must sleep 1s of virtual time
	if got := clk.Since(t0); got != time.Second {
		t.Fatalf("virtual sleep = %v", got)
	}
}

// Property: long-run admitted rate never exceeds the configured rate.
func TestQuickTokenBucketRate(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := func(seed uint8) bool {
		clk := clock.NewVirtual()
		rate := 100.0
		tb := NewTokenBucket(rate, 10, clk)
		t0 := clk.Now()
		n := 200 + int(seed)
		for i := 0; i < n; i++ {
			tb.Wait(1)
		}
		elapsed := clk.Since(t0).Seconds()
		// n admissions need at least (n-burst)/rate seconds.
		return elapsed >= float64(n-10)/rate-0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- Schedulers ---

func TestFIFOSchedulerAccounts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewFIFOScheduler()
	s.Admit(1, 10, 0)
	s.Done(1, 10, 0)
	if s.Admit(1, 10, 0) {
		t.Fatal("FIFO Admit reported a parked call")
	}
	s.Done(1, 10, 25) // measured overrides
	if got := s.Usage(1); got != 35 {
		t.Fatalf("usage = %d", got)
	}
}

func TestFairSchedulerSingleVMNeverBlocks(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewFairScheduler(10)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			s.Admit(1, 1000, 0)
			s.Done(1, 1000, 0)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("uncontended VM blocked")
	}
	if s.Usage(1) != 100*1000 {
		t.Fatalf("usage = %d", s.Usage(1))
	}
}

func TestFairSchedulerHoldsBackLeader(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Work-conserving fairness: a VM that ran ahead while uncontended must
	// be held back once a behind VM starts contending, until the laggard
	// catches up to within the window.
	s := NewFairScheduler(100)

	// VM1 runs ahead uncontended: usage 1000.
	for i := 0; i < 100; i++ {
		s.Admit(1, 10, 0)
		s.Done(1, 10, 0)
	}

	// VM2 starts contending and holds its slot open (Admit without Done).
	s.Admit(2, 10, 0)

	// VM1's next Admit must now block: 1000 > 10 + 100.
	admitted := make(chan struct{})
	go func() {
		s.Admit(1, 10, 0)
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("leader admitted despite being over the window")
	case <-time.After(50 * time.Millisecond):
	}

	// VM2 catches up; once within the window, VM1 unblocks.
	s.Done(2, 10, 0)
	for s.Usage(2) < s.Usage(1)-100 {
		s.Admit(2, 10, 0)
		s.Done(2, 10, 0)
	}
	// VM1 may still be gated on VM2 contending; VM2 going idle must also
	// release it (work conservation).
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("leader never admitted after laggard caught up")
	}
	s.Done(1, 10, 0)
}

func TestFairSchedulerWeightedAccounting(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Usage is normalized by weight: a weight-4 VM is charged a quarter of
	// the cost, so it can issue 4x the work before being held back.
	s := NewFairScheduler(50)
	s.SetWeight(1, 4)
	s.SetWeight(2, 1)
	for i := 0; i < 100; i++ {
		s.Admit(1, 40, 0)
		s.Done(1, 40, 0)
		s.Admit(2, 10, 0)
		s.Done(2, 10, 0)
	}
	// VM1 did 4x the raw work but has identical normalized usage.
	if s.Usage(1) != 1000 || s.Usage(2) != 1000 {
		t.Fatalf("usage = %d, %d; want 1000, 1000", s.Usage(1), s.Usage(2))
	}
}

func TestFairSchedulerWeightedHoldBack(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Equal raw work: the low-weight VM accrues normalized usage faster
	// and is the one held back under contention.
	s := NewFairScheduler(50)
	s.SetWeight(1, 4)
	s.SetWeight(2, 1)
	for i := 0; i < 100; i++ {
		s.Admit(2, 10, 0)
		s.Done(2, 10, 0) // usage 1000 normalized
	}
	s.Admit(1, 40, 0) // usage 10; holds its slot open as the contender
	admitted := make(chan struct{})
	go func() {
		s.Admit(2, 10, 0)
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("low-weight leader admitted despite contention")
	case <-time.After(50 * time.Millisecond):
	}
	s.Done(1, 40, 0) // contender leaves; work conservation releases VM2
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("VM2 never released")
	}
	s.Done(2, 10, 0)
}

func TestFairSchedulerZeroWeightCoerced(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewFairScheduler(10)
	s.SetWeight(1, 0)
	s.Admit(1, 10, 0)
	s.Done(1, 10, 0)
	if s.Usage(1) != 10 {
		t.Fatalf("usage = %d", s.Usage(1))
	}
}

// --- Router ---

// routedStack builds guest <-> router <-> echo-server plumbing. The echo
// server executes nothing: it answers every sync call with StatusOK and
// counts frames, isolating router behaviour from server behaviour.
type echoServer struct {
	mu      sync.Mutex
	calls   []uint32
	decoded []*marshal.Call // full headers as the server received them
}

func (e *echoServer) serve(ep transport.Endpoint) {
	for {
		frame, err := ep.Recv()
		if err != nil {
			return
		}
		batch, err := marshal.DecodeBatch(frame)
		if err != nil {
			return
		}
		for _, cf := range batch {
			call, err := marshal.DecodeCall(cf)
			if err != nil {
				return
			}
			e.mu.Lock()
			e.calls = append(e.calls, call.Func)
			e.decoded = append(e.decoded, call)
			e.mu.Unlock()
			if call.Flags&marshal.FlagAsync == 0 {
				rep := marshal.EncodeReply(&marshal.Reply{Seq: call.Seq, Status: marshal.StatusOK, Ret: marshal.Int(0)})
				if err := ep.Send(rep); err != nil {
					return
				}
			}
		}
	}
}

func (e *echoServer) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.calls)
}

func (e *echoServer) call(i int) *marshal.Call {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.decoded[i]
}

func routedStack(t *testing.T, r *Router, id VMID) (transport.Endpoint, *echoServer) {
	t.Helper()
	guestEP, routerGuest := transport.NewInProc()
	routerServer, serverEP := transport.NewInProc()
	echo := &echoServer{}
	go echo.serve(serverEP)
	go r.Attach(id, routerGuest, routerServer)
	t.Cleanup(func() { guestEP.Close() })
	return guestEP, echo
}

func sendSync(t *testing.T, ep transport.Endpoint, frame []byte) *marshal.Reply {
	t.Helper()
	if err := ep.Send(marshal.EncodeBatch([][]byte{frame})); err != nil {
		t.Fatal(err)
	}
	rf, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := marshal.DecodeReply(rf)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRouterForwardsAndReplies(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	if err := r.RegisterVM(VMConfig{ID: 1, Name: "vm1"}); err != nil {
		t.Fatal(err)
	}
	ep, echo := routedStack(t, r, 1)
	rep := sendSync(t, ep, encCall(desc, 1, "ping", 0, marshal.Uint(5)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("status = %v (%s)", rep.Status, rep.Err)
	}
	if echo.count() != 1 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	st, _ := r.Stats(1)
	if st.Forwarded != 1 || st.Denied != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterDeniesUnknownFunction(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	bad := marshal.EncodeCall(&marshal.Call{Seq: 9, Func: 777})
	rep := sendSync(t, ep, bad)
	if rep.Status != marshal.StatusDenied || rep.Seq != 9 {
		t.Fatalf("reply = %+v", rep)
	}
	if echo.count() != 0 {
		t.Fatal("denied call reached the server")
	}
}

func TestRouterDeniesArityMismatch(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	rep := sendSync(t, ep, encCall(desc, 1, "ping", 0)) // missing arg
	if rep.Status != marshal.StatusDenied {
		t.Fatalf("reply = %+v", rep)
	}
	if echo.count() != 0 {
		t.Fatal("malformed call forwarded")
	}
}

// Kind 9 once carried a registered-buffer reference: {region id, offset,
// length} into a region the server read and wrote in place, resolved
// against one registry shared by every VM of a stack. It is retired, so a
// frame carrying it is unparseable and the router drops it before it
// reaches a server — here a forged reference to 64 KiB of region 1, passed
// as push's in-buffer.
func TestRouterDeniesRetiredRegRefKind(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	const n = 64 << 10
	forged := encCall(desc, 1, "push", 0, marshal.Uint(n), marshal.Null())
	forged = forged[:len(forged)-1] // the Null's one tag byte
	forged = append(forged, 9)
	forged = binary.LittleEndian.AppendUint32(forged, 1) // region id
	forged = binary.LittleEndian.AppendUint64(forged, 0) // offset
	forged = binary.LittleEndian.AppendUint64(forged, n) // length
	if err := ep.Send(marshal.EncodeBatch([][]byte{forged})); err != nil {
		t.Fatal(err)
	}
	// An unparseable call cannot be answered; the next call's reply shows
	// the router has policed the forged one.
	if rep := sendSync(t, ep, encCall(desc, 2, "ping", 0, marshal.Uint(1))); rep.Seq != 2 || rep.Status != marshal.StatusOK {
		t.Fatalf("reply = %+v, want the ping's OK", rep)
	}
	if st, _ := r.Stats(1); st.Denied != 1 || st.Forwarded != 1 {
		t.Fatalf("stats = %+v, want the forged call denied and only the ping forwarded", st)
	}
	ping, _ := desc.Lookup("ping")
	if echo.count() != 1 || echo.call(0).Func != ping.ID {
		t.Fatalf("server saw %d calls, want only the ping", echo.count())
	}
}

func TestRouterDeniesIllegalAsync(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	// ping is always-sync; an async flag must be dropped at the router.
	frame := encCall(desc, 1, "ping", marshal.FlagAsync, marshal.Uint(1))
	if err := ep.Send(marshal.EncodeBatch([][]byte{frame})); err != nil {
		t.Fatal(err)
	}
	// The next synchronization point observes the dropped call's denial
	// (§4.2 deferred-error contract), and the one after that is clean.
	rep := sendSync(t, ep, encCall(desc, 2, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusDenied || !strings.HasPrefix(rep.Err, "deferred: ") {
		t.Fatalf("reply = %+v, want deferred denial", rep)
	}
	rep = sendSync(t, ep, encCall(desc, 3, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("reply after deferred drain = %+v", rep)
	}
	if echo.count() != 1 {
		t.Fatalf("server saw %d calls, want only the legal one", echo.count())
	}
	st, _ := r.Stats(1)
	if st.AsyncDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterStampsVMIdentity(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 42})
	ep, echo := routedStack(t, r, 42)
	// The guest lies about its identity; the router must overwrite it.
	fd, _ := desc.Lookup("ping")
	lie := marshal.EncodeCall(&marshal.Call{Seq: 1, VM: 7, Func: fd.ID, Args: []marshal.Value{marshal.Uint(0)}})
	sendSync(t, ep, lie)
	echo.mu.Lock()
	defer echo.mu.Unlock()
	if len(echo.decoded) != 1 || echo.decoded[0].VM != 42 {
		t.Fatalf("the server saw %+v, want one call from VM 42", echo.decoded)
	}
}

func TestRouterRateLimitDelays(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	// Use the real clock with a high rate so the test stays fast but the
	// delay is measurable.
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 200, CallBurst: 1})
	ep, _ := routedStack(t, r, 1)
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		rep := sendSync(t, ep, encCall(desc, uint64(i+1), "ping", 0, marshal.Uint(1)))
		if rep.Status != marshal.StatusOK {
			t.Fatalf("reply = %+v", rep)
		}
	}
	elapsed := time.Since(t0)
	// 10 calls at 200/s with burst 1: at least ~45ms.
	if elapsed < 40*time.Millisecond {
		t.Fatalf("rate limit not enforced: %v", elapsed)
	}
	st, _ := r.Stats(1)
	if st.Stall == 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestRouterResourceAccounting(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, _ := routedStack(t, r, 1)
	data := make([]byte, 4096)
	sendSync(t, ep, encCall(desc, 1, "push", 0, marshal.Uint(4096), marshal.BytesVal(data)))
	st, _ := r.Stats(1)
	if st.Resources["bandwidth"] != 4096 {
		t.Fatalf("resources = %v", st.Resources)
	}
	if st.Bytes == 0 {
		t.Fatal("bytes not counted")
	}
}

func TestRouterReplayBypassesRateLimit(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	// 1 call/sec: a non-replay stream would stall for seconds.
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 1, CallBurst: 1})
	ep, echo := routedStack(t, r, 1)
	t0 := time.Now()
	for i := 0; i < 5; i++ {
		rep := sendSync(t, ep, encCall(desc, uint64(i+1), "ping", marshal.FlagReplay, marshal.Uint(1)))
		if rep.Status != marshal.StatusOK {
			t.Fatalf("reply = %+v", rep)
		}
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("replay stalled %v", elapsed)
	}
	if echo.count() != 5 {
		t.Fatalf("server saw %d", echo.count())
	}
}

func TestRouterUnknownVMAttach(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRouter(hvDesc(), nil, nil)
	a, b := transport.NewInProc()
	defer a.Close()
	defer b.Close()
	if err := r.Attach(99, a, b); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("err = %v", err)
	}
}

func TestRouterDuplicateRegister(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRouter(hvDesc(), nil, nil)
	if err := r.RegisterVM(VMConfig{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterVM(VMConfig{ID: 1}); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	r.UnregisterVM(1)
	if err := r.RegisterVM(VMConfig{ID: 1}); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestRouterStatsUnknownVM(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRouter(hvDesc(), nil, nil)
	if _, err := r.Stats(3); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("err = %v", err)
	}
}

func TestRouterBatchPreserved(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	// A batch of 3 async launches plus one sync ping.
	frames := [][]byte{
		encCall(desc, 1, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)),
		encCall(desc, 2, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)),
		encCall(desc, 3, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)),
		encCall(desc, 4, "ping", 0, marshal.Uint(1)),
	}
	if err := ep.Send(marshal.EncodeBatch(frames)); err != nil {
		t.Fatal(err)
	}
	rf, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := marshal.DecodeReply(rf)
	if rep.Seq != 4 || rep.Status != marshal.StatusOK {
		t.Fatalf("reply = %+v", rep)
	}
	if echo.count() != 4 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	st, _ := r.Stats(1)
	if st.Resources["device_time"] != 3*16 {
		t.Fatalf("device_time = %d", st.Resources["device_time"])
	}
}

func TestRouterFairSchedulerIntegration(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	sched := NewFairScheduler(50)
	r := NewRouter(desc, sched, nil)
	r.RegisterVM(VMConfig{ID: 1, Weight: 1})
	r.RegisterVM(VMConfig{ID: 2, Weight: 1})
	ep1, _ := routedStack(t, r, 1)
	ep2, _ := routedStack(t, r, 2)

	var wg sync.WaitGroup
	send := func(ep transport.Endpoint, n int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			frame := encCall(desc, uint64(i+1), "launch", marshal.FlagAsync, marshal.Uint(6400), marshal.Uint(64))
			if err := ep.Send(marshal.EncodeBatch([][]byte{frame})); err != nil {
				return
			}
		}
	}
	wg.Add(2)
	go send(ep1, 50)
	go send(ep2, 50)
	wg.Wait()

	// Both VMs forwarded the same launch mix; usage should converge.
	waitFor(t, func() bool {
		s1, _ := r.Stats(1)
		s2, _ := r.Stats(2)
		return s1.Forwarded == 50 && s2.Forwarded == 50
	})
	u1, u2 := sched.Usage(1), sched.Usage(2)
	if u1 == 0 || u2 == 0 {
		t.Fatalf("usage = %d, %d", u1, u2)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVMStatsCopyIsolated(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, _ := routedStack(t, r, 1)
	sendSync(t, ep, encCall(desc, 1, "push", 0, marshal.Uint(4), marshal.BytesVal(make([]byte, 4))))
	st, _ := r.Stats(1)
	st.Resources["bandwidth"] = 999999
	st2, _ := r.Stats(1)
	if st2.Resources["bandwidth"] != 4 {
		t.Fatal("Stats returned aliased map")
	}
}

func TestRouterClosePropagates(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	guestEP, routerGuest := transport.NewInProc()
	routerServer, serverEP := transport.NewInProc()
	echo := &echoServer{}
	go echo.serve(serverEP)
	done := make(chan error, 1)
	go func() { done <- r.Attach(1, routerGuest, routerServer) }()
	guestEP.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Attach returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Attach did not unwind on guest close")
	}
}

func TestPoliceMalformedCallCounted(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	if err := ep.Send(marshal.EncodeBatch([][]byte{{0xDE, 0xAD}})); err != nil {
		t.Fatal(err)
	}
	// Synchronize with a valid call.
	rep := sendSync(t, ep, encCall(desc, 2, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("reply = %+v", rep)
	}
	if echo.count() != 1 {
		t.Fatal("garbage frame forwarded")
	}
	st, _ := r.Stats(1)
	if st.Denied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConfigNamesInStats(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRouter(hvDesc(), nil, nil)
	for i := 0; i < 3; i++ {
		if err := r.RegisterVM(VMConfig{ID: VMID(i), Name: fmt.Sprintf("vm%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Stats(VMID(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouterResourceQuota(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	// 10 KB cumulative bandwidth allotment.
	r.RegisterVM(VMConfig{ID: 1, Quotas: map[string]int64{"bandwidth": 10 << 10}})
	ep, echo := routedStack(t, r, 1)

	data := make([]byte, 4096)
	// Two 4 KiB pushes fit; the third would exceed 10 KiB and is denied.
	for i := 0; i < 2; i++ {
		rep := sendSync(t, ep, encCall(desc, uint64(i+1), "push", 0, marshal.Uint(4096), marshal.BytesVal(data)))
		if rep.Status != marshal.StatusOK {
			t.Fatalf("push %d: %+v", i, rep)
		}
	}
	rep := sendSync(t, ep, encCall(desc, 3, "push", 0, marshal.Uint(4096), marshal.BytesVal(data)))
	if rep.Status != marshal.StatusDenied || !strings.Contains(rep.Err, "quota") {
		t.Fatalf("third push = %+v", rep)
	}
	// Unquota'd calls still flow.
	rep = sendSync(t, ep, encCall(desc, 4, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("ping after quota denial: %+v", rep)
	}
	if echo.count() != 3 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	st, _ := r.Stats(1)
	if st.Denied != 1 || st.Resources["bandwidth"] != 8192 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterQuotaDoesNotChargeDenied(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1, Quotas: map[string]int64{"bandwidth": 5000}})
	ep, _ := routedStack(t, r, 1)
	big := make([]byte, 8192)
	small := make([]byte, 1024)
	// Oversized push denied without consuming quota...
	rep := sendSync(t, ep, encCall(desc, 1, "push", 0, marshal.Uint(8192), marshal.BytesVal(big)))
	if rep.Status != marshal.StatusDenied {
		t.Fatalf("big push = %+v", rep)
	}
	// ...so smaller pushes still fit.
	for i := 0; i < 4; i++ {
		rep := sendSync(t, ep, encCall(desc, uint64(i+2), "push", 0, marshal.Uint(1024), marshal.BytesVal(small)))
		if rep.Status != marshal.StatusOK {
			t.Fatalf("small push %d: %+v", i, rep)
		}
	}
}

// --- PriorityScheduler ---

// admitOrder parks one waiter per entry of pris (arrival order = slice
// order) behind a held gate, then opens the gate and returns the indices
// in admission order. between, if non-nil, runs after waiter i is parked.
func admitOrder(t *testing.T, s *PriorityScheduler, pris []uint8, between func(i int)) []int {
	t.Helper()
	s.Admit(0, 1, 255) // hold the gate so waiters contend
	order := make(chan int, len(pris))
	var wg sync.WaitGroup
	for i, p := range pris {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Admit(1, 1, p)
			order <- i
			s.Done(1, 1, 0)
		}()
		// Each waiter must be parked before the next arrives, so FIFO
		// tiebreaks are deterministic.
		for s.Waiting() != i+1 {
			time.Sleep(time.Millisecond)
		}
		if between != nil {
			between(i)
		}
	}
	s.Done(0, 1, 0) // open the gate
	wg.Wait()
	close(order)
	got := make([]int, 0, len(pris))
	for i := range order {
		got = append(got, i)
	}
	return got
}

func TestPrioritySchedulerOrdersByPriority(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Arrival order 0,1,2 with priorities 0,5,3: a FIFO scheduler admits
	// in arrival order (its Admit never blocks), the priority scheduler
	// must serve 1 (pri 5), then 2 (pri 3), then 0 (pri 0).
	s := NewPriorityScheduler(clock.NewVirtual(), 0)
	got := admitOrder(t, s, []uint8{0, 5, 3}, nil)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", got, want)
		}
	}
	if s.Usage(1) != 3 {
		t.Fatalf("usage = %d", s.Usage(1))
	}
}

func TestPrioritySchedulerFIFOWithinLevel(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	s := NewPriorityScheduler(clock.NewVirtual(), 0)
	got := admitOrder(t, s, []uint8{7, 7, 7}, nil)
	for i, idx := range []int{0, 1, 2} {
		if got[i] != idx {
			t.Fatalf("same-priority admission order = %v, want FIFO", got)
		}
	}
}

func TestPrioritySchedulerAgingPromotes(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// One level per millisecond of waiting: a priority-1 call parked for
	// 300ms of virtual time outranks a fresh priority-200 arrival.
	clk := clock.NewVirtual()
	s := NewPriorityScheduler(clk, time.Millisecond)
	got := admitOrder(t, s, []uint8{1, 200}, func(i int) {
		if i == 0 {
			clk.Advance(300 * time.Millisecond)
		}
	})
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("admission order = %v, want aged waiter first", got)
	}
}

// --- Router deadlines ---

// encCallDeadline builds a call frame with explicit deadline/stamp/priority
// header fields, as a guest library would emit.
func encCallDeadline(desc *cava.Descriptor, seq uint64, name string, pri uint8, encode, deadline int64, args ...marshal.Value) []byte {
	fd, ok := desc.Lookup(name)
	if !ok {
		panic(name)
	}
	c := &marshal.Call{Seq: seq, Func: fd.ID, Priority: pri, Deadline: deadline, Args: args}
	c.Stamps.Encode = encode
	return marshal.EncodeCall(c)
}

func TestRouterDeniesExpiredDeadline(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, clock.NewVirtual())
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	// Deadline at or before the encode stamp: zero remaining budget in the
	// guest's own clock domain, regardless of router-clock skew.
	frame := encCallDeadline(desc, 7, "ping", 0, 2_000, 1_500, marshal.Uint(1))
	rep := sendSync(t, ep, frame)
	if rep.Status != marshal.StatusDeadline {
		t.Fatalf("reply = %+v, want StatusDeadline", rep)
	}
	if rep.Seq != 7 {
		t.Fatalf("reply seq = %d", rep.Seq)
	}
	if echo.count() != 0 {
		t.Fatal("expired call reached the server")
	}
	st, _ := r.Stats(1)
	if st.Denied != 1 || st.DeadlineDenied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterDeniesDeadlineAfterStall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	// Burst 1 at 10 calls/s: the second call stalls 100ms of virtual time
	// in the rate limiter.
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 10, CallBurst: 1})
	ep, echo := routedStack(t, r, 1)

	rep := sendSync(t, ep, encCallDeadline(desc, 1, "ping", 0, 1_000, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("first call = %+v", rep)
	}

	// 50ms of budget cannot survive the 100ms stall: the router must deny
	// after the stall rather than forward a dead call to the silo.
	budget := (50 * time.Millisecond).Nanoseconds()
	rep = sendSync(t, ep, encCallDeadline(desc, 2, "ping", 0, 1_000, 1_000+budget, marshal.Uint(1)))
	if rep.Status != marshal.StatusDeadline {
		t.Fatalf("stalled call = %+v, want StatusDeadline", rep)
	}
	if echo.count() != 1 {
		t.Fatalf("server saw %d calls, want only the first", echo.count())
	}
	st, _ := r.Stats(1)
	if st.DeadlineDenied != 1 || st.Stall < 100*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterPatchesHeaderForForwarding(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	r.RegisterVM(VMConfig{ID: 42})
	ep, echo := routedStack(t, r, 42)

	// Guest clock domain is arbitrary (epoch 5000); 1s of budget.
	budget := time.Second.Nanoseconds()
	rep := sendSync(t, ep, encCallDeadline(desc, 1, "ping", 9, 5_000, 5_000+budget, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("reply = %+v", rep)
	}
	got := echo.call(0)
	if got.VM != 42 {
		t.Fatalf("forwarded VM = %d, want hypervisor-asserted 42", got.VM)
	}
	if got.Priority != 9 {
		t.Fatalf("forwarded priority = %d", got.Priority)
	}
	now := clk.Now().UnixNano()
	if got.Deadline != now+budget {
		t.Fatalf("forwarded deadline = %d, want %d (re-anchored to router clock)", got.Deadline, now+budget)
	}
	if got.Stamps.Admit != now {
		t.Fatalf("admit stamp = %d, want %d", got.Stamps.Admit, now)
	}
	if got.Stamps.Encode != 5_000 {
		t.Fatalf("encode stamp clobbered: %d", got.Stamps.Encode)
	}
}

func TestRouterReplayBypassesDeadlineStall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Replayed calls skip rate limiting, so their deadlines are only
	// checked at arrival; a generous deadline survives.
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 1, CallBurst: 1})
	ep, echo := routedStack(t, r, 1)
	rep := sendSync(t, ep, encCallDeadline(desc, 1, "ping", 0, 1_000, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("first call = %+v", rep)
	}
	fd, _ := desc.Lookup("ping")
	c := &marshal.Call{Seq: 2, Func: fd.ID, Flags: marshal.FlagReplay, Deadline: 1_000 + time.Millisecond.Nanoseconds(), Args: []marshal.Value{marshal.Uint(1)}}
	c.Stamps.Encode = 1_000
	rep = sendSync(t, ep, marshal.EncodeCall(c))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("replayed call = %+v", rep)
	}
	if echo.count() != 2 {
		t.Fatalf("server saw %d calls", echo.count())
	}
}

// admitConfigs are the two policy set-ups the admission benchmark and the
// alloc budget cover: no policy at all, and everything switched on but never
// binding — fair scheduling, token buckets and a load shedder, as a serving
// deployment configures them.
type admitConfig struct {
	name  string
	build func(desc *cava.Descriptor) (*Router, VMConfig)
}

func admitConfigs() []admitConfig {
	return []admitConfig{
		{"fifo", func(desc *cava.Descriptor) (*Router, VMConfig) {
			return NewRouter(desc, nil, nil), VMConfig{ID: 1, Name: "vm1"}
		}},
		{"fair+buckets+shed", func(desc *cava.Descriptor) (*Router, VMConfig) {
			r := NewRouter(desc, NewFairScheduler(0), nil)
			r.SetShedPolicy(ShedConfig{MaxRecentStall: time.Second})
			return r, VMConfig{ID: 1, Name: "vm1", CallsPerSec: 1e9, CallBurst: 1e9, Weight: 1,
				Quotas: map[string]int64{"device_time": 1 << 60}}
		}},
	}
}

// BenchmarkRouterAdmit measures the router's per-call admission path alone:
// one encoded call policed against the VM's policy, no transport.
func BenchmarkRouterAdmit(b *testing.B) {
	desc := hvDesc()
	for _, cfg := range admitConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			r, vm := cfg.build(desc)
			if err := r.RegisterVM(vm); err != nil {
				b.Fatal(err)
			}
			st, _ := r.vm(vm.ID)
			frame := encCall(desc, 1, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64))
			var sc uplinkScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := r.clk.Now() // the arrival reading of a one-call frame
				if keep, _ := r.police(vm.ID, st, frame, &now, &sc); !keep {
					b.Fatal("call not admitted")
				}
			}
		})
	}
}

// The router polices every call of a frame in one scratch record, which
// each decode overwrites: a shorter call policed after a longer one must
// see its own arguments, not the longer call's leftovers. What the router
// charges shows what it decoded — a stale argument vector would fail the
// one-argument ping's arity check, or charge push the launch's bandwidth.
func TestRouterChargesEachCallOfAFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, nil)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	batch := marshal.EncodeBatch([][]byte{
		encCall(desc, 1, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)),
		encCall(desc, 2, "push", 0, marshal.Uint(4), marshal.BytesVal([]byte("data"))),
		encCall(desc, 3, "ping", 0, marshal.Uint(7)),
	})
	if err := ep.Send(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the two synchronous calls' replies
		if _, err := ep.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := r.Stats(1)
	if st.Forwarded != 3 || st.Denied != 0 {
		t.Fatalf("forwarded %d, denied %d: want all three calls through", st.Forwarded, st.Denied)
	}
	want := map[string]int64{"device_time": 1024 / 64, "bandwidth": 4}
	if !reflect.DeepEqual(st.Resources, want) {
		t.Fatalf("charged %v, want %v", st.Resources, want)
	}
	if echo.count() != 3 {
		t.Fatalf("server saw %d calls, want 3", echo.count())
	}
}

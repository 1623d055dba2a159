package hv

import (
	"ava/internal/leaktest"
	"strings"
	"sync"
	"testing"
	"time"

	"ava/internal/clock"
	"ava/internal/marshal"
)

// --- PriorityBuckets ---

func TestPriorityBucketsFloorIsolation(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	shares := [NumPriorityBands]float64{0.25, 0.25, 0.25, 0.25}
	pb := NewPriorityBuckets(100, 8, shares, clk)
	// Saturate band 0 far past its floor and the whole aggregate.
	if d := pb.Reserve(0, 100); d <= 0 {
		t.Fatalf("saturating reservation delayed %v, want > 0", d)
	}
	// Band 3's floor (2 tokens) is untouched: no delay despite the
	// exhausted shared bucket.
	if d := pb.Reserve(3, 1); d != 0 {
		t.Fatalf("high band delayed %v by low-band saturation", d)
	}
	if d := pb.Reserve(3, 1); d != 0 {
		t.Fatalf("high band second floor token delayed %v", d)
	}
	// Past its floor, band 3 must now wait like everyone else.
	if d := pb.Reserve(3, 1); d <= 0 {
		t.Fatal("band 3 past floor and past aggregate should wait")
	}
}

func TestPriorityBucketsBorrowSpareCapacity(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	shares := [NumPriorityBands]float64{0.25, 0.25, 0.25, 0.25}
	pb := NewPriorityBuckets(100, 8, shares, clk)
	// Band 0's floor holds 2 tokens; the remaining burst is spare
	// aggregate capacity it may borrow, so 8 tokens flow without delay.
	for i := 0; i < 8; i++ {
		if d := pb.Reserve(0, 1); d != 0 {
			t.Fatalf("token %d delayed %v, want borrow at no delay", i, d)
		}
	}
	// The 9th finds both floor and aggregate dry: it waits for the
	// cheaper of the two refills — the aggregate at 100/s, 10ms.
	if d := pb.Reserve(0, 1); d != 10*time.Millisecond {
		t.Fatalf("9th token delay = %v, want 10ms", d)
	}
}

func TestPriorityBucketsZeroShareBand(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	// Only band 0 has a floor; band 3 has no reservation and settles
	// against the shared bucket.
	pb := NewPriorityBuckets(10, 1, [NumPriorityBands]float64{1, 0, 0, 0}, clk)
	if d := pb.Reserve(3, 1); d != 0 {
		t.Fatalf("first shared token delayed %v", d)
	}
	if d := pb.Reserve(3, 1); d != 100*time.Millisecond {
		t.Fatalf("second token delay = %v, want 100ms (no free pass for floor-less bands)", d)
	}
}

func TestPriorityBucketsUnlimited(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	var pb *PriorityBuckets
	if !pb.Unlimited() {
		t.Fatal("nil hierarchy should be unlimited")
	}
	pb = NewPriorityBuckets(0, 0, [NumPriorityBands]float64{}, clock.NewVirtual())
	if !pb.Unlimited() {
		t.Fatal("zero-rate hierarchy should be unlimited")
	}
	if d := pb.Reserve(0, 1e9); d != 0 {
		t.Fatalf("unlimited Reserve = %v", d)
	}
}

func TestPriorityBandMapping(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	cases := []struct {
		pri  uint8
		band int
	}{{0, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {192, 3}, {255, 3}}
	for _, c := range cases {
		if got := PriorityBand(c.pri); got != c.band {
			t.Fatalf("PriorityBand(%d) = %d, want %d", c.pri, got, c.band)
		}
	}
}

// --- TokenBucket concurrency ---

// Parallel Wait callers must never admit tokens faster than the configured
// rate: n admissions need at least (n-burst)/rate seconds of (virtual)
// time no matter how the callers interleave.
func TestTokenBucketConcurrentWaiters(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	const (
		rate    = 100.0
		burst   = 10.0
		workers = 8
		perG    = 50
	)
	tb := NewTokenBucket(rate, burst, clk)
	t0 := clk.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tb.Wait(1)
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Since(t0).Seconds()
	if min := (workers*perG - burst) / rate; elapsed < min-0.001 {
		t.Fatalf("%d tokens admitted in %.3fs, rate limit requires >= %.3fs", workers*perG, elapsed, min)
	}
}

// An oversized reservation (n > burst) is admitted after a proportional
// delay and must not wedge the bucket for subsequent callers.
func TestTokenBucketOversizedReservation(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	tb := NewTokenBucket(10, 5, clk)
	if d := tb.Wait(50); d != 4500*time.Millisecond {
		t.Fatalf("oversized Wait delay = %v, want 4.5s", d)
	}
	// The wait paid off the whole debt: the next caller sees a normal
	// one-token refill delay, not a wedged bucket.
	d := tb.Reserve(1)
	if d < 99*time.Millisecond || d > 101*time.Millisecond {
		t.Fatalf("post-oversized Reserve delay = %v, want ~100ms", d)
	}
}

// --- Bugfix regressions ---

// Regression: police must reserve the call and byte buckets up front and
// sleep once for the larger delay. The old sequential Wait-then-Wait lost
// refill credit to the byte bucket's burst cap while sleeping out a long
// call-bucket delay, charging more than the overlap.
func TestRouterStallIsMaxNotSum(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	// One call per 10s (burst 1); 1000 B/s with a 100-byte burst. A single
	// share puts everything in band 0, making both levels of the hierarchy
	// identical to plain buckets.
	r.RegisterVM(VMConfig{
		ID: 1, CallsPerSec: 0.1, CallBurst: 1, BytesPerSec: 1000, ByteBurst: 100,
		PriorityShares: [NumPriorityBands]float64{1, 0, 0, 0},
	})
	ep, echo := routedStack(t, r, 1)

	// First call: a small ping fits both bursts, no stall.
	if rep := sendSync(t, ep, encCall(desc, 1, "ping", 0, marshal.Uint(1))); rep.Status != marshal.StatusOK {
		t.Fatalf("ping reply = %+v", rep)
	}
	// Second call: a 300-byte push. Call bucket wants 10s, byte bucket
	// ~0.3s; the stall must be their max (10s), not 10s plus whatever the
	// byte bucket re-charges after its burst-capped refill.
	data := make([]byte, 300)
	if rep := sendSync(t, ep, encCall(desc, 2, "push", 0, marshal.Uint(300), marshal.BytesVal(data))); rep.Status != marshal.StatusOK {
		t.Fatalf("push reply = %+v", rep)
	}
	if echo.count() != 2 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	st, _ := r.Stats(1)
	if st.Stall != 10*time.Second {
		t.Fatalf("combined stall = %v, want exactly 10s (the max, not the sum)", st.Stall)
	}
	if st.BandStall[0] != st.Stall {
		t.Fatalf("band-0 stall = %v, want all of %v", st.BandStall[0], st.Stall)
	}
}

// Regression: a call with a deadline but no encode stamp must be anchored
// at admission on the router's clock, not misread as a near-infinite
// relative budget. Both skew directions: a deadline already behind the
// router's clock is denied; one ahead is admitted with the right budget.
func TestRouterDeadlineUnstampedEncode(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk)
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)
	now := clk.Now().UnixNano()

	// Deadline in the router's past, encode unstamped: deny.
	past := now - int64(time.Second)
	rep := sendSync(t, ep, encCallDeadline(desc, 1, "ping", 0, 0, past, marshal.Uint(1)))
	if rep.Status != marshal.StatusDeadline {
		t.Fatalf("expired unstamped call: reply = %+v, want deadline denial", rep)
	}
	st, _ := r.Stats(1)
	if st.DeadlineDenied != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Deadline in the router's future: admit, and the forwarded header
	// carries the same absolute instant re-anchored on the router's clock.
	future := now + int64(50*time.Millisecond)
	rep = sendSync(t, ep, encCallDeadline(desc, 2, "ping", 0, 0, future, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("future unstamped call: reply = %+v", rep)
	}
	if echo.count() != 1 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	if got := echo.call(0).Deadline; got != future {
		t.Fatalf("forwarded deadline = %d, want %d (anchored at admission)", got, future)
	}
}

// Regression: an async call denied at the router must fail the VM's next
// synchronous call (§4.2's deferred-error contract) instead of vanishing
// into a counter.
func TestRouterDeferredAsyncDenial(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, nil, clock.NewVirtual())
	r.RegisterVM(VMConfig{ID: 1, Quotas: map[string]int64{"device_time": 10}})
	ep, echo := routedStack(t, r, 1)

	// Async launch whose device-time estimate (64/1) blows the quota: the
	// router drops it with no reply.
	frame := encCall(desc, 1, "launch", marshal.FlagAsync, marshal.Uint(64), marshal.Uint(1))
	if err := ep.Send(marshal.EncodeBatch([][]byte{frame})); err != nil {
		t.Fatal(err)
	}
	// The next synchronization point surfaces the recorded denial.
	rep := sendSync(t, ep, encCall(desc, 2, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusDenied {
		t.Fatalf("sync after dropped async: reply = %+v, want denial", rep)
	}
	if !strings.HasPrefix(rep.Err, "deferred: ") || !strings.Contains(rep.Err, "quota") {
		t.Fatalf("deferred error text = %q", rep.Err)
	}
	// The slot drains: the following sync call is clean.
	rep = sendSync(t, ep, encCall(desc, 3, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("reply after deferred drain = %+v", rep)
	}
	if echo.count() != 1 {
		t.Fatalf("server saw %d calls, want only the clean ping", echo.count())
	}
	st, _ := r.Stats(1)
	// Two denials: the dropped async call and the sync call that absorbed
	// its deferred error.
	if st.AsyncDropped != 1 || st.Denied != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// --- Load shedding ---

// fakeLoadSched is a pass-through scheduler reporting configurable load.
type fakeLoadSched struct {
	mu    sync.Mutex
	depth int
	stall time.Duration
}

func (f *fakeLoadSched) Admit(vm VMID, cost int64, pri uint8) bool { return false }
func (f *fakeLoadSched) Done(vm VMID, cost int64, measured int64)  {}
func (f *fakeLoadSched) Usage(vm VMID) int64                       { return 0 }
func (f *fakeLoadSched) set(depth int, stall time.Duration) {
	f.mu.Lock()
	f.depth, f.stall = depth, stall
	f.mu.Unlock()
}
func (f *fakeLoadSched) QueueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.depth
}
func (f *fakeLoadSched) RecentStall() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stall
}

func TestRouterShedsLowPriorityOnQueueDepth(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	sched := &fakeLoadSched{}
	r := NewRouter(desc, sched, clock.NewVirtual())
	r.SetShedPolicy(ShedConfig{MaxQueueDepth: 5})
	r.RegisterVM(VMConfig{ID: 1})
	ep, echo := routedStack(t, r, 1)

	sched.set(10, 0) // overloaded
	// Band-0 sync call: immediate StatusOverload denial.
	rep := sendSync(t, ep, encCallDeadline(desc, 1, "ping", 0, 0, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOverload {
		t.Fatalf("low-priority reply = %+v, want overload", rep)
	}
	// High-priority traffic is never shed.
	rep = sendSync(t, ep, encCallDeadline(desc, 2, "ping", 200, 0, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("high-priority reply = %+v", rep)
	}
	// Async band-0 call: shed silently, surfaced at the next sync point.
	frame := encCall(desc, 3, "launch", marshal.FlagAsync, marshal.Uint(4), marshal.Uint(1))
	if err := ep.Send(marshal.EncodeBatch([][]byte{frame})); err != nil {
		t.Fatal(err)
	}
	rep = sendSync(t, ep, encCallDeadline(desc, 4, "ping", 200, 0, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOverload || !strings.HasPrefix(rep.Err, "deferred: ") {
		t.Fatalf("sync after shed async: reply = %+v, want deferred overload", rep)
	}

	sched.set(0, 0) // pressure gone: band 0 flows again
	rep = sendSync(t, ep, encCallDeadline(desc, 5, "ping", 0, 0, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("post-overload reply = %+v", rep)
	}
	// Forwarded: the first high-priority ping and the post-overload ping
	// (the second high-priority ping absorbed the deferred denial).
	if echo.count() != 2 {
		t.Fatalf("server saw %d calls", echo.count())
	}
	st, _ := r.Stats(1)
	if st.ShedDenied != 2 || st.AsyncDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The router's own rate-limit stall EWMA trips MaxRecentStall even with a
// non-introspective scheduler.
func TestRouterShedsOnRecentRateLimitStall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	clk := clock.NewVirtual()
	r := NewRouter(desc, nil, clk) // FIFO: no LoadIntrospector
	r.SetShedPolicy(ShedConfig{MaxRecentStall: 10 * time.Millisecond})
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 10, CallBurst: 1})
	ep, _ := routedStack(t, r, 1)

	// First call rides the burst; the second stalls 100ms borrowing from
	// the shared bucket, pushing the EWMA (alpha 1/8) to 12.5ms.
	for seq := uint64(1); seq <= 2; seq++ {
		if rep := sendSync(t, ep, encCall(desc, seq, "ping", 0, marshal.Uint(1))); rep.Status != marshal.StatusOK {
			t.Fatalf("warm-up reply = %+v", rep)
		}
	}
	if got := r.RecentStall(); got < 10*time.Millisecond {
		t.Fatalf("RecentStall = %v, want >= threshold", got)
	}
	// Now band 0 is shed without stalling...
	rep := sendSync(t, ep, encCall(desc, 3, "ping", 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOverload {
		t.Fatalf("low-priority reply = %+v, want overload", rep)
	}
	// ...while band 3 rides its floor, un-stalled and un-shed.
	rep = sendSync(t, ep, encCallDeadline(desc, 4, "ping", 255, 0, 0, marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("high-priority reply = %+v", rep)
	}
	st, _ := r.Stats(1)
	if st.ShedDenied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BandStall[3] != 0 {
		t.Fatalf("high band absorbed stall %v", st.BandStall[3])
	}
}

// Stats (and the shed signals) must be safely readable while an Attach
// loop is actively policing traffic; run under -race.
func TestRouterStatsRaceWithAttach(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	r := NewRouter(desc, NewPriorityScheduler(nil, 0), nil)
	r.SetShedPolicy(ShedConfig{MaxRecentStall: time.Hour}) // enabled, never trips
	r.RegisterVM(VMConfig{ID: 1, CallsPerSec: 1e9, CallBurst: 1e9})
	ep, _ := routedStack(t, r, 1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := r.Stats(1); err != nil {
				return
			}
			r.RecentStall()
		}
	}()
	for seq := uint64(1); seq <= 300; seq++ {
		if rep := sendSync(t, ep, encCall(desc, seq, "ping", uint16(0), marshal.Uint(1))); rep.Status != marshal.StatusOK {
			t.Fatalf("reply = %+v", rep)
		}
	}
	close(done)
	wg.Wait()
	st, _ := r.Stats(1)
	if st.Forwarded != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

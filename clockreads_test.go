package ava_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/clock"
	"ava/internal/devsim"
	"ava/internal/guest"
	"ava/internal/leaktest"
	"ava/internal/server"
)

// countingClock is the wall clock, counting every reading by the package of
// the function that took it.
type countingClock struct {
	clock.Real
	mu    sync.Mutex
	reads map[string]int
}

func (c *countingClock) Now() time.Time {
	pkg := "?"
	if pc, _, _, ok := runtime.Caller(1); ok {
		pkg = callerPackage(runtime.FuncForPC(pc).Name())
	}
	c.mu.Lock()
	c.reads[pkg]++
	c.mu.Unlock()
	return c.Real.Now()
}

// Since is a reading too; the embedded wall clock's would go uncounted.
func (c *countingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// take returns the readings counted since the last take, by package.
func (c *countingClock) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.reads
	c.reads = map[string]int{}
	return out
}

// callerPackage cuts "ava/internal/hv.(*Router).police" to "hv".
func callerPackage(fn string) string {
	fn = fn[strings.LastIndexByte(fn, '/')+1:]
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// clockRig is a default in-proc cl stack on a counting clock, with a kernel
// whose arguments a test sets and a queue it finishes.
type clockRig struct {
	clk          *countingClock
	c            *cl.RemoteClient
	kern, q, buf cl.Ref
}

func clockStack(t *testing.T, opts ...guest.Option) *clockRig {
	t.Helper()
	clk := &countingClock{reads: map[string]int{}}
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "test-gpu", MemoryBytes: 1 << 30, ComputeUnits: 4}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	stack := ava.NewStack(desc, reg, ava.WithClock(clk))
	t.Cleanup(stack.Close)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "clock"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := c.CreateBuffer(ctx, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.CreateProgram(ctx, "vector_add")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	kern, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3; i++ {
		if err := c.SetKernelArgBuffer(kern, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}
	clk.take()
	return &clockRig{clk: clk, c: c, kern: kern, q: q, buf: buf}
}

func wantReads(t *testing.T, what string, got map[string]int, guestN, hvN, serverN int) {
	t.Helper()
	want := map[string]int{"guest": guestN, "hv": hvN, "server": serverN}
	for pkg := range want {
		if want[pkg] == 0 {
			delete(want, pkg)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: clock reads %v, want %v", what, got, want)
		return
	}
	for pkg, n := range want {
		if got[pkg] != n {
			t.Errorf("%s: clock reads %v, want %v", what, got, want)
			return
		}
	}
}

// setArgs sets the rig kernel's four arguments with deadline-free async
// calls: the calls op's batch.
func (rig *clockRig) setArgs(t *testing.T, n uint32) {
	t.Helper()
	for i := uint32(0); i < 3; i++ {
		if err := rig.c.SetKernelArgBuffer(rig.kern, i, rig.buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(n)); err != nil {
		t.Fatal(err)
	}
}

// The forwarded call path reads the clock only where some consumer needs the
// reading (DESIGN.md, "Clock reads and what the stamps mean"). A calls-shaped
// op — four async clSetKernelArg batched behind one clFinish — reads it 6
// times: the guest twice (the sync call's encode stamp and its reply
// accounting), the router once (the frame's arrival), the server three times
// (the reading that opens the run the four async calls share, and the sync
// call's dispatch, which closes it, and handler return).
func TestClockReadsPerOp(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)

	t.Run("calls op", func(t *testing.T) {
		rig := clockStack(t)
		const ops = 20
		for op := 0; op < ops; op++ {
			rig.setArgs(t, uint32(op+1))
			if err := rig.c.Finish(rig.q); err != nil {
				t.Fatal(err)
			}
		}
		wantReads(t, "calls op", rig.clk.take(), 2*ops, 1*ops, 3*ops)
	})

	// A frame that ends on async calls closes its run before the receive
	// loop waits for the next frame: one reading opens the run, one closes
	// it. The clFinish behind it is a frame of its own and reads like the
	// forced-sync row below (guest 2, router 1, server 2).
	t.Run("flushed async frame", func(t *testing.T) {
		rig := clockStack(t)
		rig.setArgs(t, 7)
		if err := rig.c.Lib().Flush(); err != nil {
			t.Fatal(err)
		}
		if err := rig.c.Finish(rig.q); err != nil {
			t.Fatal(err)
		}
		wantReads(t, "four flushed async calls, then clFinish", rig.clk.take(), 2, 1+1, 2+2)
	})

	// A call with a deadline keeps its two server readings inside a run:
	// its dispatch closes the run, its handler return opens the next, which
	// the async call behind it joins and the wait for the next frame closes.
	t.Run("timed async call inside a run", func(t *testing.T) {
		rig := clockStack(t)
		timed := rig.c.With(guest.WithTimeout(time.Minute))
		for i := uint32(0); i < 2; i++ {
			if err := rig.c.SetKernelArgBuffer(rig.kern, i, rig.buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := timed.SetKernelArgBuffer(rig.kern, 2, rig.buf); err != nil {
			t.Fatal(err)
		}
		if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(7)); err != nil {
			t.Fatal(err)
		}
		if err := rig.c.Lib().Flush(); err != nil {
			t.Fatal(err)
		}
		if err := rig.c.Finish(rig.q); err != nil {
			t.Fatal(err)
		}
		// Guest: the timed call's encode, the deadline-pressure check of the
		// async call batched behind it, the flush's batch-expiry check, and
		// clFinish's 2. Server: the run's 2, the timed call's 2, clFinish's 2.
		wantReads(t, "a run with a timed async call in it, then clFinish", rig.clk.take(), 3+2, 1+1, 2+2+2)
	})

	// On the workers a run lasts while a worker's queue holds its next call
	// and no call of it has to wait for another worker. The serve op — an
	// async 4 KiB write, four clSetKernelArg, a launch, a blocking read —
	// reads the server's clock 14 times with two readings per call; how
	// many runs it takes now depends on how the workers interleave with
	// the receive loop, so the count is bounded, not pinned.
	t.Run("serve op on the workers", func(t *testing.T) {
		rig := clockStack(t)
		in, out := make([]byte, 4096), make([]byte, 4096)
		const ops = 50
		for op := 0; op < ops; op++ {
			if err := rig.c.EnqueueWrite(rig.q, rig.buf, false, 0, in); err != nil {
				t.Fatal(err)
			}
			rig.setArgs(t, 1024)
			if err := rig.c.EnqueueNDRange(rig.q, rig.kern, []uint64{1024}, []uint64{64}); err != nil {
				t.Fatal(err)
			}
			if err := rig.c.EnqueueRead(rig.q, rig.buf, true, 0, out); err != nil {
				t.Fatal(err)
			}
		}
		got := rig.clk.take()
		t.Logf("serve op: %.2f server readings per op (%v over %d ops)", float64(got["server"])/ops, got, ops)
		if got["guest"] != 2*ops || got["hv"] != 1*ops {
			t.Errorf("serve op: clock reads %v, want guest %d and hv %d", got, 2*ops, ops)
		}
		if got["server"] > 10*ops {
			t.Errorf("serve op: %d server readings over %d ops, want at most 10 per op", got["server"], ops)
		}
	})

	t.Run("async call without deadline", func(t *testing.T) {
		rig := clockStack(t)
		if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(7)); err != nil {
			t.Fatal(err)
		}
		wantReads(t, "batched async call", rig.clk.take(), 0, 0, 0)
		if err := rig.c.Finish(rig.q); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("async call with timeout", func(t *testing.T) {
		rig := clockStack(t, guest.WithTimeout(time.Minute))
		if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(7)); err != nil {
			t.Fatal(err)
		}
		// The deadline anchor and fail-fast need the encode reading.
		wantReads(t, "batched async call with a timeout", rig.clk.take(), 1, 0, 0)
		if err := rig.c.Finish(rig.q); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("forced sync call", func(t *testing.T) {
		rig := clockStack(t, guest.WithForceSync())
		if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(7)); err != nil {
			t.Fatal(err)
		}
		wantReads(t, "forced-sync call", rig.clk.take(), 2, 1, 2)
	})
}

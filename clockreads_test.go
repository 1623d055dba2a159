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

// The forwarded call path reads the clock only where some consumer needs the
// reading (DESIGN.md, "Clock reads and what the stamps mean"). A calls-shaped
// op — four async clSetKernelArg batched behind one clFinish — reads it 13
// times: the guest twice (the sync call's encode stamp and its reply
// accounting), the router once (the frame's arrival), the server twice per
// call (dispatch and handler return).
func TestClockReadsPerOp(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)

	t.Run("calls op", func(t *testing.T) {
		rig := clockStack(t)
		const ops = 20
		for op := 0; op < ops; op++ {
			for i := uint32(0); i < 3; i++ {
				if err := rig.c.SetKernelArgBuffer(rig.kern, i, rig.buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := rig.c.SetKernelArgScalar(rig.kern, 3, cl.ArgU32(uint32(op+1))); err != nil {
				t.Fatal(err)
			}
			if err := rig.c.Finish(rig.q); err != nil {
				t.Fatal(err)
			}
		}
		wantReads(t, "calls op", rig.clk.take(), 2*ops, 1*ops, 10*ops)
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

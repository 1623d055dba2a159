//go:build !race

package cl_test

import (
	"testing"

	"ava/internal/cl"
	"ava/internal/guest"
	"ava/internal/guest/guesttest"
	"ava/internal/leaktest"
	"ava/internal/marshal"
)

// Alloc budget for the OpenCL binding: through the generated stubs, over an
// endpoint that itself allocates nothing, the calls a steady-state workload
// is made of allocate nothing — no boxing into `...any`, no by-name lookup,
// the argument vector on the stub's stack, out destinations never converted
// to an interface. (Compiled out under -race; `make allocs` runs it.) With
// the hand-written `CallWith(name, ...any)` binding these were 1–3 each.
func TestRemoteClientAllocatesNothing(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	echo := guesttest.NewEcho()
	const payload = 4 << 10
	answer := guesttest.ServerOuts(desc)
	echo.Outs = func(c *marshal.Call) []marshal.Value {
		outs := answer(c)
		for i := range outs {
			if outs[i].Kind() == marshal.KindUint { // a scalar element: errcode_ret, left at CL_SUCCESS
				outs[i] = marshal.Null()
			}
		}
		return outs
	}
	lib := guest.New(desc, echo)
	defer lib.Close()
	c := cl.NewRemote(lib)

	mem, err := c.CreateBuffer(cl.Ref{}, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	var q, kern cl.Ref
	scalar := cl.ArgU32(7)
	src, dst := make([]byte, payload), make([]byte, payload)
	rows := []struct {
		name string
		call func() error
	}{
		{"SetKernelArgScalar", func() error { return c.SetKernelArgScalar(kern, 3, scalar) }},
		{"SetKernelArgBuffer", func() error { return c.SetKernelArgBuffer(kern, 0, mem) }},
		{"Finish", func() error { return c.Finish(q) }},
		{"blocking 4 KiB EnqueueWrite", func() error { return c.EnqueueWrite(q, mem, true, 0, src) }},
		{"blocking 4 KiB EnqueueRead", func() error { return c.EnqueueRead(q, mem, true, 0, dst) }},
	}
	for i := 0; i < 300; i++ { // full batches: frame hint, meta slices, pools
		for _, r := range rows {
			if err := r.call(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
	}
	for _, r := range rows {
		if n := testing.AllocsPerRun(1000, func() {
			if err := r.call(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", r.name, n)
		}
	}
}

// Alloc budget for the native baseline: the same rows as
// TestRemoteClientAllocatesNothing plus a kernel launch, straight on the
// silo. fig5's relative_time divides by this path, so what it allocates per
// call is pinned at the counts it reads: the scalar argument's retained
// copy, an event per enqueue, and the launch's environment.
func TestNativeClientAllocs(t *testing.T) {
	c := cl.NewNative(newSilo())
	ctx, _, q := bootstrap(t, c)
	const payload = 4 << 10
	mem, err := c.CreateBuffer(ctx, 0, payload)
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
		if err := c.SetKernelArgBuffer(kern, i, mem); err != nil {
			t.Fatal(err)
		}
	}
	scalar := cl.ArgU32(payload / 4)
	src, dst := make([]byte, payload), make([]byte, payload)
	global, local := []uint64{payload / 4}, []uint64{64}
	rows := []struct {
		name   string
		budget float64
		call   func() error
	}{
		{"SetKernelArgScalar", 1, func() error { return c.SetKernelArgScalar(kern, 3, scalar) }},
		{"SetKernelArgBuffer", 0, func() error { return c.SetKernelArgBuffer(kern, 0, mem) }},
		{"Finish", 0, func() error { return c.Finish(q) }},
		{"blocking 4 KiB EnqueueWrite", 1, func() error { return c.EnqueueWrite(q, mem, true, 0, src) }},
		{"blocking 4 KiB EnqueueRead", 1, func() error { return c.EnqueueRead(q, mem, true, 0, dst) }},
		{"EnqueueNDRange", 6, func() error { return c.EnqueueNDRange(q, kern, global, local) }},
	}
	for _, r := range rows {
		if n := testing.AllocsPerRun(1000, func() {
			if err := r.call(); err != nil {
				t.Fatal(err)
			}
		}); n > r.budget {
			t.Errorf("%s allocates %v times per call, budget %v", r.name, n, r.budget)
		}
	}
}

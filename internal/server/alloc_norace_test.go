//go:build !race

package server_test

import (
	"ava/internal/leaktest"
	"testing"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// loopback is a guest endpoint that executes every call frame it is sent
// through Server.ExecuteFrame and queues the replies, keeping the latest
// frame of each function for replay.
type loopback struct {
	srv     *server.Server
	ctx     *server.Context
	replies chan []byte
	frames  map[uint32][]byte
}

func (l *loopback) Send(frame []byte) error {
	calls, err := marshal.DecodeBatch(frame)
	if err != nil {
		return err
	}
	for _, cf := range calls {
		c, err := marshal.DecodeCall(cf)
		if err != nil {
			return err
		}
		l.frames[c.Func] = append([]byte(nil), cf...)
		out, err := l.srv.ExecuteFrame(l.ctx, cf)
		if err != nil {
			return err
		}
		if out != nil {
			l.replies <- out
		}
	}
	return nil
}

func (l *loopback) Recv() ([]byte, error) {
	f, ok := <-l.replies
	if !ok {
		return nil, transport.ErrClosed
	}
	return f, nil
}

func (l *loopback) Close() error { close(l.replies); return nil }

// Alloc budget for the server's dispatch path, measured on the two calls the
// `calls` benchmark op is made of, against the real OpenCL silo binding:
// decode into a pooled slot, verify against the spec, run the handler,
// account, build the reply. (Compiled out under -race; `make allocs` runs
// it.)
//
//   - clSetKernelArg (async, no reply): 1 — the silo's own copy of the
//     scalar argument, which must outlive the frame.
//   - clFinish (sync): 1 — the reply frame, which ExecuteFrame hands to its
//     caller to keep (ServeVM draws it from the frame pool instead).
//
// The parent of this change spent 6 on each.
func TestExecuteFrameAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(cl.Spec)
	silo := cl.NewSilo(cl.Config{})
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	srv := server.New(reg)
	lb := &loopback{srv: srv, ctx: srv.Context(1, "vm1"), replies: make(chan []byte, 16), frames: map[uint32][]byte{}}
	lib := guest.New(desc, lb, guest.WithForceSync())
	defer lib.Close()

	c := cl.NewRemote(lib)
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, _ := c.CreateContext(ds)
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	prog, _ := c.CreateProgram(ctx, "vector_add")
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	k, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetKernelArgScalar(k, 3, cl.ArgU32(1024)); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		fn     string
		async  bool
		budget float64
	}{
		{"clSetKernelArg", true, 1},
		{"clFinish", false, 1},
	} {
		fd, _ := desc.Lookup(tc.fn)
		frame := lb.frames[fd.ID]
		if frame == nil {
			t.Fatalf("%s: no frame captured", tc.fn)
		}
		if tc.async {
			// The guest was forced synchronous to capture; replay the call
			// the way the benchmark forwards it.
			call, _ := marshal.DecodeCall(frame)
			call.Flags |= marshal.FlagAsync
			frame = marshal.EncodeCall(call)
		}
		run := func() {
			out, err := srv.ExecuteFrame(lb.ctx, frame)
			if err != nil || (out == nil) != tc.async {
				t.Fatalf("%s: reply %v, err %v", tc.fn, out, err)
			}
		}
		run()
		if n := testing.AllocsPerRun(1000, run); n > tc.budget {
			t.Errorf("ExecuteFrame(%s) allocates %v times per call, budget %v", tc.fn, n, tc.budget)
		} else {
			t.Logf("ExecuteFrame(%s): %v allocs per call (budget %v)", tc.fn, n, tc.budget)
		}
	}
	if errs := lb.ctx.Stats().Errors; errs != 0 {
		t.Fatalf("%d calls answered with an error status", errs)
	}
}

// Alloc budget for the payload path: a steady-state blocking 256 KiB
// clEnqueueReadBuffer, guest to ServeVM and back over the in-process
// transport. The out buffer the handler fills, the reply frame and the
// guest's frames all cycle through framebuf, so what is left is the silo's
// own cl_event for the read (which the native path pays too). With the out
// buffer a fresh make([]byte, size) this was 256 KiB of garbage per call,
// enough by itself to keep the collector cycling and the frame pools empty.
func TestServeVMReadAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	c := cl.NewRemote(attachVM(t, clServer(desc), desc, 1))
	ctx, q := clQueue(t, c)
	const size = 256 << 10
	mem, err := c.CreateBuffer(ctx, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	if err := c.EnqueueWrite(q, mem, true, 0, src); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if err := c.EnqueueRead(q, mem, true, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		read()
	}
	const budget = 1 // the silo's event
	if n := testing.AllocsPerRun(500, read); n > budget {
		t.Errorf("blocking 256 KiB read through ServeVM allocates %v times per call, budget %v", n, budget)
	} else {
		t.Logf("blocking 256 KiB read through ServeVM: %v allocs per call (budget %v)", n, budget)
	}
	if string(dst) != string(src) {
		t.Fatal("read returned different bytes than were written")
	}
}

// Alloc budget for the `calls` benchmark op through ServeVM over the
// in-process transport: three buffer and one scalar clSetKernelArg (async)
// and a clFinish (sync), which the guest flushes as one five-call frame.
// Guest, transport, serve loop and silo together. The budget is the count
// with every call on a dispatch worker: running the frame on the serve loop
// must not cost more.
func TestServeVMCallsAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	c := cl.NewRemote(attachVM(t, clServer(desc), desc, 1))
	ctx, q := clQueue(t, c)
	var bufs [3]cl.Ref
	for i := range bufs {
		var err error
		if bufs[i], err = c.CreateBuffer(ctx, 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := c.CreateProgram(ctx, "vector_add")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	k, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		for i, b := range bufs {
			if err := c.SetKernelArgBuffer(k, uint32(i), b); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SetKernelArgScalar(k, 3, cl.ArgU32(1024)); err != nil {
			t.Fatal(err)
		}
		if err := c.Finish(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		op()
	}
	const budget = 2
	if n := testing.AllocsPerRun(1000, op); n > budget {
		t.Errorf("the calls op through ServeVM allocates %v times, budget %v", n, budget)
	} else {
		t.Logf("the calls op through ServeVM: %v allocs (budget %v)", n, budget)
	}
	if err := c.DeferredError(); err != nil {
		t.Fatal(err)
	}
}

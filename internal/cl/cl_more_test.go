package cl_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/stacktest"
)

// Additional conformance tests over both clients: reference counting,
// event queries, info-query two-phase protocol, and argument edge cases.

func TestRetainReleaseRefcounts(t *testing.T) {
	// Retain/release pairs must keep objects alive exactly until the last
	// release (native path; the remote path shares the silo logic).
	silo := newSilo()
	c := cl.NewNative(silo)
	ctx, _, q := bootstrap(t, c)
	_ = q

	buf, err := c.CreateBuffer(ctx, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cl.NativeMem(buf)
	if st := silo.ClRetainMemObject(nil, m); st != cl.Success {
		t.Fatalf("retain = %d", st)
	}
	// First release: still alive (refcount 1).
	if err := c.ReleaseBuffer(buf); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueWrite(q, buf, true, 0, make([]byte, 64)); err != nil {
		t.Fatalf("buffer died early: %v", err)
	}
	// Second release: dead.
	if err := c.ReleaseBuffer(buf); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueWrite(q, buf, true, 0, make([]byte, 64)); err == nil {
		t.Fatal("write to dead buffer succeeded")
	}
}

func TestContextRefcountViaInfo(t *testing.T) {
	silo := newSilo()
	c := cl.NewNative(silo)
	ctx, _, _ := bootstrap(t, c)
	rc, err := c.ContextInfo(ctx, cl.ContextRefCount)
	if err != nil || binary.LittleEndian.Uint64(rc) != 1 {
		t.Fatalf("refcount = %v, %v", rc, err)
	}
}

func TestEventExecStatusQuery(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			_, _, q := bootstrap(t, c)
			ev, err := c.EnqueueMarker(q)
			if err != nil {
				t.Fatal(err)
			}
			// Eager queues: the marker is complete on creation; the
			// profiling timestamps are ordered.
			qd, err := c.EventProfiling(ev, cl.ProfilingQueued)
			if err != nil {
				t.Fatal(err)
			}
			end, err := c.EventProfiling(ev, cl.ProfilingEnd)
			if err != nil {
				t.Fatal(err)
			}
			if end < qd {
				t.Fatalf("end %d < queued %d", end, qd)
			}
		})
	}
}

func TestInfoQueryTwoPhase(t *testing.T) {
	// Size query (nil buffer) then data query — the standard OpenCL
	// application idiom, exercised explicitly across the wire.
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ps, _ := c.PlatformIDs()
			version, err := c.PlatformInfo(ps[0], cl.PlatformVersion)
			if err != nil || len(version) == 0 {
				t.Fatalf("version = %q, %v", version, err)
			}
		})
	}
}

func TestKernelWorkGroupInfo(t *testing.T) {
	silo := newSilo()
	c := cl.NewNative(silo)
	ctx, dev, _ := bootstrap(t, c)
	prog, _ := c.CreateProgram(ctx, "vector_add")
	c.BuildProgram(prog, "")
	k, _ := c.CreateKernel(prog, "vector_add")
	km, ok := nativeKernel(k)
	if !ok {
		t.Fatal("not a native kernel ref")
	}
	_ = dev
	buf := make([]byte, 8)
	n, st := silo.ClGetKernelWorkGroupInfo(nil, km, nil, cl.KernelWorkGroupSize, uint64(len(buf)), buf)
	if st != cl.Success || n != 8 || binary.LittleEndian.Uint64(buf) == 0 {
		t.Fatalf("wg info = %d bytes, st %d", n, st)
	}
}

// nativeKernel unwraps a native Ref to its kernel (test helper mirroring
// NativeMem).
func nativeKernel(r cl.Ref) (*cl.Kernel, bool) {
	return cl.NativeKernel(r)
}

func TestSetKernelArgErrors(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			prog, _ := c.CreateProgram(ctx, "vector_add")
			c.BuildProgram(prog, "")
			k, _ := c.CreateKernel(prog, "vector_add")
			// clSetKernelArg is forwarded asynchronously: its failure
			// arrives via the next synchronization point (§4.2 error
			// deferral), so each probe is followed by a sync barrier.
			// Index out of range.
			if err := c.SetKernelArgScalar(k, 99, cl.ArgU32(1)); err == nil {
				c.Finish(q)
				if err2 := c.DeferredError(); err2 == nil {
					t.Fatal("bad arg index accepted")
				}
			}
			// Scalar where a buffer is declared.
			if err := c.SetKernelArgScalar(k, 0, cl.ArgU32(1)); err == nil {
				c.Finish(q)
				if err2 := c.DeferredError(); err2 == nil {
					t.Fatal("scalar bound to buffer slot")
				}
			}
		})
	}
}

func TestWaitListValidation(t *testing.T) {
	// A wait list naming a bogus event must be rejected server-side.
	for name, c := range clients(t) {
		if name == "native" {
			continue // wait lists are remoted-path plumbing
		}
		t.Run(name, func(t *testing.T) {
			rc := c.(*cl.RemoteClient)
			_, _, q := bootstrap(t, c)
			bogus := make([]byte, 8)
			binary.LittleEndian.PutUint64(bogus, 424242)
			ret, err := rc.Lib().Call("clWaitForEvents", uint32(1), bogus)
			if err != nil {
				t.Fatal(err)
			}
			if ret.Int() == int64(cl.Success) {
				t.Fatal("bogus wait list accepted")
			}
			_ = q
		})
	}
}

func TestFillPatternValidation(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			buf, _ := c.CreateBuffer(ctx, 1, 64)
			// Size not a multiple of the pattern: invalid.
			err := c.EnqueueFill(q, buf, []byte{1, 2, 3}, 0, 64)
			if err == nil {
				c.Finish(q)
				err = c.DeferredError()
			}
			if err == nil {
				t.Fatal("misaligned fill accepted")
			}
		})
	}
}

func TestEnqueueTaskSingleWorkItem(t *testing.T) {
	for name, c := range clients(t) {
		if name == "native" {
			continue // exercised through the remote wire format here
		}
		t.Run(name, func(t *testing.T) {
			rc := c.(*cl.RemoteClient)
			ctx, _, q := bootstrap(t, c)
			a, _ := c.CreateBuffer(ctx, 1, 4)
			b, _ := c.CreateBuffer(ctx, 1, 4)
			o, _ := c.CreateBuffer(ctx, 1, 4)
			c.EnqueueWrite(q, a, true, 0, []byte{0, 0, 128, 63}) // 1.0
			c.EnqueueWrite(q, b, true, 0, []byte{0, 0, 0, 64})   // 2.0
			prog, _ := c.CreateProgram(ctx, "vector_add")
			c.BuildProgram(prog, "")
			k, _ := c.CreateKernel(prog, "vector_add")
			c.SetKernelArgBuffer(k, 0, a)
			c.SetKernelArgBuffer(k, 1, b)
			c.SetKernelArgBuffer(k, 2, o)
			c.SetKernelArgScalar(k, 3, cl.ArgU32(1))
			ret, err := rc.Lib().Call("clEnqueueTask", q.Handle(), k.Handle(), uint32(0), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = ret // async: success value
			if err := c.Finish(q); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, 4)
			if err := c.EnqueueRead(q, o, true, 0, out); err != nil {
				t.Fatal(err)
			}
			if out[2] != 0x40 || out[3] != 0x40 { // 3.0f LE
				t.Fatalf("task result = % x", out)
			}
			if err := c.DeferredError(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMultiDeviceContext(t *testing.T) {
	// Two devices in one silo: a queue on device 1 must operate on
	// context buffers (which live on the context's primary device) and
	// run kernels on its own device, with busy time charged there.
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{
			{Name: "gpu0", MemoryBytes: 16 << 20, ComputeUnits: 2},
			{Name: "gpu1", MemoryBytes: 16 << 20, ComputeUnits: 2},
		},
	})
	c := cl.NewNative(silo)
	ps, _ := c.PlatformIDs()
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil || len(ds) != 2 {
		t.Fatalf("devices: %v %v", ds, err)
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := c.CreateQueue(ctx, ds[1], 0) // queue on the SECOND device
	if err != nil {
		t.Fatal(err)
	}
	buf, err := c.CreateBuffer(ctx, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pat := bytes.Repeat([]byte{0x5C}, 1024)
	if err := c.EnqueueWrite(q1, buf, true, 0, pat); err != nil {
		t.Fatalf("write via second-device queue: %v", err)
	}
	got := make([]byte, 1024)
	if err := c.EnqueueRead(q1, buf, true, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatal("contents lost across devices")
	}
	// Kernel launch on device 1 accounts busy time on device 1.
	prog, _ := c.CreateProgram(ctx, "vector_add")
	c.BuildProgram(prog, "")
	k, _ := c.CreateKernel(prog, "vector_add")
	a, _ := c.CreateBuffer(ctx, 1, 64)
	b, _ := c.CreateBuffer(ctx, 1, 64)
	o, _ := c.CreateBuffer(ctx, 1, 64)
	c.SetKernelArgBuffer(k, 0, a)
	c.SetKernelArgBuffer(k, 1, b)
	c.SetKernelArgBuffer(k, 2, o)
	c.SetKernelArgScalar(k, 3, cl.ArgU32(16))
	if err := c.EnqueueNDRange(q1, k, []uint64{16}, []uint64{16}); err != nil {
		t.Fatal(err)
	}
	d1 := ds[1]
	dsim, ok := cl.NativeDevice(d1)
	if !ok {
		t.Fatal("not a native device ref")
	}
	if dsim.Sim().Stats().KernelsRun != 1 {
		t.Fatal("kernel not executed on the queue's device")
	}
}

func TestSweepBogusHandles(t *testing.T) {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, newSilo())
	stacktest.SweepBogusHandles(t, server.New(reg))
}

func TestSweepRandomArgs(t *testing.T) {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, newSilo())
	stacktest.SweepRandomArgs(t, server.New(reg), 50)
}

func TestOrderingDomainsFollowFirstHandle(t *testing.T) {
	desc := cl.Descriptor()
	// Enqueues order on the command queue; clSetKernelArg orders on the
	// kernel it mutates. The dispatch pipeline serializes the two through
	// the shared kernel handle, so the split is safe — but the primary
	// domains must differ or per-queue parallelism disappears.
	for _, name := range []string{
		"clEnqueueNDRangeKernel", "clEnqueueWriteBuffer", "clFinish",
		"clSetKernelArg",
	} {
		fd, ok := desc.Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if fd.DomainIdx != 0 {
			t.Fatalf("%s DomainIdx = %d, want 0", name, fd.DomainIdx)
		}
	}
	// Two queues are two domains.
	fd, _ := desc.Lookup("clFinish")
	q1 := []marshal.Value{marshal.HandleVal(7)}
	q2 := []marshal.Value{marshal.HandleVal(8)}
	if fd.Domain(q1) == fd.Domain(q2) {
		t.Fatal("distinct queues mapped to one ordering domain")
	}
	// Discovery calls carry no input handle: fallback domain.
	gp, _ := desc.Lookup("clGetPlatformIDs")
	if gp.DomainIdx != -1 {
		t.Fatalf("clGetPlatformIDs DomainIdx = %d, want -1", gp.DomainIdx)
	}
}

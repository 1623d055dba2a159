package cl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/server"
)

// newSilo builds a small silo for tests.
func newSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "test-gpu", MemoryBytes: 64 << 20, ComputeUnits: 4}},
	})
}

// clients returns the same logical client both ways: native and through
// the full AvA stack (guest -> router -> server -> silo).
func clients(t *testing.T) map[string]cl.Client {
	t.Helper()
	out := map[string]cl.Client{}

	out["native"] = cl.NewNative(newSilo())

	silo := newSilo()
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	stack := ava.NewStack(desc, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "test-vm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	out["remote"] = cl.NewRemote(lib)
	return out
}

// bootstrap opens platform/device/context/queue, failing the test on error.
func bootstrap(t *testing.T, c cl.Client) (ctx, dev, q cl.Ref) {
	t.Helper()
	ps, err := c.PlatformIDs()
	if err != nil || len(ps) != 1 {
		t.Fatalf("platforms: %v %v", ps, err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil || len(ds) != 1 {
		t.Fatalf("devices: %v %v", ds, err)
	}
	ctx, err = c.CreateContext(ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err = c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, ds[0], q
}

func TestDiscoveryInfo(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ps, err := c.PlatformIDs()
			if err != nil {
				t.Fatal(err)
			}
			pname, err := c.PlatformInfo(ps[0], cl.PlatformName)
			if err != nil || !strings.Contains(string(pname), "AvA") {
				t.Fatalf("platform name %q, %v", pname, err)
			}
			ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeAll)
			if err != nil || len(ds) != 1 {
				t.Fatalf("devices: %v", err)
			}
			dname, err := c.DeviceInfo(ds[0], cl.DeviceName)
			if err != nil || string(dname) != "test-gpu" {
				t.Fatalf("device name %q, %v", dname, err)
			}
			mem, err := c.DeviceInfo(ds[0], cl.DeviceGlobalMemSize)
			if err != nil || binary.LittleEndian.Uint64(mem) != 64<<20 {
				t.Fatalf("mem size: %v %v", mem, err)
			}
		})
	}
}

func TestDeviceTypeFilter(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ps, _ := c.PlatformIDs()
			if _, err := c.DeviceIDs(ps[0], 0x12345); err == nil {
				t.Fatal("bogus device type accepted")
			}
		})
	}
}

func TestContextInfo(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, _ := bootstrap(t, c)
			nd, err := c.ContextInfo(ctx, cl.ContextNumDevices)
			if err != nil || binary.LittleEndian.Uint64(nd) != 1 {
				t.Fatalf("num devices: %v %v", nd, err)
			}
		})
	}
}

func TestBufferWriteReadRoundTrip(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			buf, err := c.CreateBuffer(ctx, 1, 4096)
			if err != nil {
				t.Fatal(err)
			}
			src := make([]byte, 4096)
			for i := range src {
				src[i] = byte(i * 7)
			}
			if err := c.EnqueueWrite(q, buf, true, 0, src); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 4096)
			if err := c.EnqueueRead(q, buf, true, 0, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, dst) {
				t.Fatal("buffer corrupted in transit")
			}
			if err := c.ReleaseBuffer(buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNonBlockingWriteThenFinish(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			buf, _ := c.CreateBuffer(ctx, 1, 64)
			src := bytes.Repeat([]byte{0xAB}, 64)
			// Non-blocking write: async on the remote path.
			if err := c.EnqueueWrite(q, buf, false, 0, src); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(q); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 64)
			if err := c.EnqueueRead(q, buf, true, 0, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, dst) {
				t.Fatal("non-blocking write lost")
			}
		})
	}
}

func TestVectorAddKernel(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			const n = 1024
			a := make([]float32, n)
			b := make([]float32, n)
			for i := 0; i < n; i++ {
				a[i] = float32(i)
				b[i] = float32(2 * i)
			}
			bufA, _ := c.CreateBuffer(ctx, 1, 4*n)
			bufB, _ := c.CreateBuffer(ctx, 1, 4*n)
			bufOut, _ := c.CreateBuffer(ctx, 1, 4*n)
			if err := c.EnqueueWrite(q, bufA, true, 0, bytesconv.Float32Bytes(a)); err != nil {
				t.Fatal(err)
			}
			if err := c.EnqueueWrite(q, bufB, true, 0, bytesconv.Float32Bytes(b)); err != nil {
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
			if err := c.SetKernelArgBuffer(kern, 0, bufA); err != nil {
				t.Fatal(err)
			}
			if err := c.SetKernelArgBuffer(kern, 1, bufB); err != nil {
				t.Fatal(err)
			}
			if err := c.SetKernelArgBuffer(kern, 2, bufOut); err != nil {
				t.Fatal(err)
			}
			if err := c.SetKernelArgScalar(kern, 3, cl.ArgU32(n)); err != nil {
				t.Fatal(err)
			}
			if err := c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{64}); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(q); err != nil {
				t.Fatal(err)
			}

			out := make([]byte, 4*n)
			if err := c.EnqueueRead(q, bufOut, true, 0, out); err != nil {
				t.Fatal(err)
			}
			res := bytesconv.ToFloat32(out)
			for i := 0; i < n; i++ {
				if res[i] != float32(3*i) {
					t.Fatalf("out[%d] = %v, want %v", i, res[i], float32(3*i))
				}
			}
			if err := c.DeferredError(); err != nil {
				t.Fatalf("deferred error: %v", err)
			}
		})
	}
}

func TestKernelEventProfiling(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			bufA, _ := c.CreateBuffer(ctx, 1, 4*16)
			bufB, _ := c.CreateBuffer(ctx, 1, 4*16)
			bufO, _ := c.CreateBuffer(ctx, 1, 4*16)
			prog, _ := c.CreateProgram(ctx, "vector_add")
			c.BuildProgram(prog, "")
			kern, _ := c.CreateKernel(prog, "vector_add")
			c.SetKernelArgBuffer(kern, 0, bufA)
			c.SetKernelArgBuffer(kern, 1, bufB)
			c.SetKernelArgBuffer(kern, 2, bufO)
			c.SetKernelArgScalar(kern, 3, cl.ArgU32(16))
			ev, err := c.EnqueueNDRangeEvent(q, kern, []uint64{16}, []uint64{16})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WaitForEvents([]cl.Ref{ev}); err != nil {
				t.Fatal(err)
			}
			start, err := c.EventProfiling(ev, cl.ProfilingStart)
			if err != nil {
				t.Fatal(err)
			}
			end, err := c.EventProfiling(ev, cl.ProfilingEnd)
			if err != nil {
				t.Fatal(err)
			}
			if end < start {
				t.Fatalf("end %d < start %d", end, start)
			}
			if err := c.ReleaseEvent(ev); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCopyAndFill(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			a, _ := c.CreateBuffer(ctx, 1, 64)
			b, _ := c.CreateBuffer(ctx, 1, 64)
			if err := c.EnqueueFill(q, a, []byte{1, 2, 3, 4}, 0, 64); err != nil {
				t.Fatal(err)
			}
			if err := c.EnqueueCopy(q, a, b, 0, 0, 64); err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(q); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 64)
			if err := c.EnqueueRead(q, b, true, 0, dst); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if dst[i] != byte(i%4+1) {
					t.Fatalf("dst[%d] = %d", i, dst[i])
				}
			}
		})
	}
}

func TestMarkerAndBarrier(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			_, _, q := bootstrap(t, c)
			if err := c.EnqueueBarrier(q); err != nil {
				t.Fatal(err)
			}
			ev, err := c.EnqueueMarker(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WaitForEvents([]cl.Ref{ev}); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(q); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildFailure(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, _ := bootstrap(t, c)
			prog, err := c.CreateProgram(ctx, "no_such_kernel_anywhere")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.BuildProgram(prog, ""); err == nil {
				t.Fatal("bogus program built")
			}
			log, err := c.ProgramBuildLog(prog)
			if err != nil || !strings.Contains(log, "no_such_kernel_anywhere") {
				t.Fatalf("build log %q, %v", log, err)
			}
			if _, err := c.CreateKernel(prog, "no_such_kernel_anywhere"); err == nil {
				t.Fatal("kernel created from failed build")
			}
		})
	}
}

func TestLaunchWithUnsetArgsFails(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			prog, _ := c.CreateProgram(ctx, "vector_add")
			c.BuildProgram(prog, "")
			kern, _ := c.CreateKernel(prog, "vector_add")
			err := c.EnqueueNDRange(q, kern, []uint64{8}, []uint64{8})
			// Launch is forwarded async on the remote path, so the failure
			// may arrive immediately (native) or deferred (remote).
			if err == nil {
				c.Finish(q)
				err = c.DeferredError()
			}
			if err == nil {
				t.Fatal("launch with unset args succeeded")
			}
		})
	}
}

func TestUseAfterReleaseFails(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			ctx, _, q := bootstrap(t, c)
			buf, _ := c.CreateBuffer(ctx, 1, 64)
			if err := c.ReleaseBuffer(buf); err != nil {
				t.Fatal(err)
			}
			if err := c.EnqueueRead(q, buf, true, 0, make([]byte, 64)); err == nil {
				t.Fatal("read of released buffer succeeded")
			}
		})
	}
}

func TestOutOfMemoryCode(t *testing.T) {
	// Native path only: the raw CL status must be allocation failure.
	c := cl.NewNative(newSilo())
	ctx, _, _ := bootstrap(t, c)
	_, err := c.CreateBuffer(ctx, 1, 1<<40)
	var ce *cl.Error
	if !errors.As(err, &ce) || ce.Status != cl.ErrMemObjectAllocFailure {
		t.Fatalf("err = %v", err)
	}
}

func TestSpecConstantsMatchGoConstants(t *testing.T) {
	// The spec text and the Go silo constants must agree; drift here
	// would silently corrupt every remoted call.
	desc := cl.Descriptor()
	api := desc.API
	checks := map[string]int64{
		"CL_SUCCESS":                       int64(cl.Success),
		"CL_MEM_OBJECT_ALLOCATION_FAILURE": int64(cl.ErrMemObjectAllocFailure),
		"CL_INVALID_VALUE":                 int64(cl.ErrInvalidValue),
		"CL_INVALID_CONTEXT":               int64(cl.ErrInvalidContext),
		"CL_INVALID_MEM_OBJECT":            int64(cl.ErrInvalidMemObject),
		"CL_INVALID_KERNEL":                int64(cl.ErrInvalidKernel),
		"CL_DEVICE_TYPE_GPU":               int64(cl.DeviceTypeGPU),
		"CL_PLATFORM_NAME":                 int64(cl.PlatformName),
		"CL_DEVICE_NAME":                   int64(cl.DeviceName),
		"CL_DEVICE_GLOBAL_MEM_SIZE":        int64(cl.DeviceGlobalMemSize),
		"CL_PROFILING_COMMAND_START":       int64(cl.ProfilingStart),
		"CL_PROFILING_COMMAND_END":         int64(cl.ProfilingEnd),
		"CL_PROGRAM_BUILD_LOG":             int64(cl.ProgramBuildLog),
		"CL_KERNEL_WORK_GROUP_SIZE":        int64(cl.KernelWorkGroupSize),
	}
	for name, want := range checks {
		got, ok := api.Const(name)
		if !ok || got != want {
			t.Errorf("const %s: spec %d (%t), Go %d", name, got, ok, want)
		}
	}
}

func TestSpecHas39Functions(t *testing.T) {
	desc := cl.Descriptor()
	if len(desc.Funcs) != 39 {
		t.Fatalf("spec declares %d functions, the paper virtualizes 39", len(desc.Funcs))
	}
}

func TestAllFunctionsHaveHandlers(t *testing.T) {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, newSilo())
	if missing := reg.Unregistered(); len(missing) != 0 {
		t.Fatalf("unhandled functions: %v", missing)
	}
}

func TestSetKernelArgIsAsyncInSpec(t *testing.T) {
	// §4.2: clSetKernelArg is forwarded asynchronously by annotation.
	desc := cl.Descriptor()
	fd, ok := desc.Lookup("clSetKernelArg")
	if !ok {
		t.Fatal("clSetKernelArg missing")
	}
	sync, err := fd.IsSync(desc.API, nil)
	if err != nil || sync {
		t.Fatalf("clSetKernelArg sync=%t err=%v", sync, err)
	}
}

func TestReadBufferConditionalSync(t *testing.T) {
	desc := cl.Descriptor()
	fd, _ := desc.Lookup("clEnqueueReadBuffer")
	if fd.CondParamIdx != 2 {
		t.Fatalf("cond param idx = %d", fd.CondParamIdx)
	}
}

func TestRemoteAsyncCallsActuallyBatched(t *testing.T) {
	silo := newSilo()
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	stack := ava.NewStack(desc, reg)
	defer stack.Close()
	lib, _ := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
	c := cl.NewRemote(lib)

	ctx, _, q := bootstrap(t, c)
	bufA, _ := c.CreateBuffer(ctx, 1, 4*64)
	bufB, _ := c.CreateBuffer(ctx, 1, 4*64)
	bufO, _ := c.CreateBuffer(ctx, 1, 4*64)
	prog, _ := c.CreateProgram(ctx, "vector_add")
	c.BuildProgram(prog, "")
	kern, _ := c.CreateKernel(prog, "vector_add")

	before := lib.Stats()
	// 4 SetKernelArg + 1 NDRange: all async, delivered by the Finish.
	c.SetKernelArgBuffer(kern, 0, bufA)
	c.SetKernelArgBuffer(kern, 1, bufB)
	c.SetKernelArgBuffer(kern, 2, bufO)
	c.SetKernelArgScalar(kern, 3, cl.ArgU32(64))
	c.EnqueueNDRange(q, kern, []uint64{64}, []uint64{64})
	mid := lib.Stats()
	if mid.SyncCalls != before.SyncCalls {
		t.Fatalf("async calls performed sync round trips: %+v -> %+v", before, mid)
	}
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}
	after := lib.Stats()
	if after.AsyncCalls-before.AsyncCalls != 5 {
		t.Fatalf("async calls = %d, want 5", after.AsyncCalls-before.AsyncCalls)
	}
	if after.Batches-mid.Batches != 1 {
		t.Fatalf("flush used %d transport frames, want 1", after.Batches-mid.Batches)
	}
}

func TestKernelRegistryDuplicate(t *testing.T) {
	r := cl.NewKernelRegistry()
	def := &cl.KernelDef{Name: "k", Args: nil, Run: func(*cl.KernelEnv) {}}
	if err := r.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(def); err == nil {
		t.Fatal("duplicate kernel registered")
	}
	if err := r.Register(&cl.KernelDef{}); err == nil {
		t.Fatal("malformed kernel registered")
	}
	if r.Lookup("k") == nil || r.Lookup("ghost") != nil {
		t.Fatal("lookup broken")
	}
}

func TestDefaultKernelsPresent(t *testing.T) {
	for _, k := range []string{"vector_add", "saxpy"} {
		if cl.DefaultKernels.Lookup(k) == nil {
			t.Errorf("default kernel %q missing", k)
		}
	}
}

func TestEvictionTransparency(t *testing.T) {
	// Buffer-granularity swap (§4.3): evicting and touching a buffer must
	// be invisible to the application.
	silo := newSilo()
	c := cl.NewNative(silo)
	ctx, _, q := bootstrap(t, c)
	buf, _ := c.CreateBuffer(ctx, 1, 128)
	src := bytes.Repeat([]byte{0x5A}, 128)
	c.EnqueueWrite(q, buf, true, 0, src)

	m := refMem(t, buf)
	if err := silo.EvictBuffer(m); err != nil {
		t.Fatal(err)
	}
	if m.Resident() {
		t.Fatal("still resident after evict")
	}
	dst := make([]byte, 128)
	if err := c.EnqueueRead(q, buf, true, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("contents lost across eviction")
	}
	if !m.Resident() {
		t.Fatal("buffer not faulted back in")
	}
}

// refMem digs the *Mem out of a native Ref via the exported snapshot API.
func refMem(t *testing.T, r cl.Ref) *cl.Mem {
	t.Helper()
	m, ok := cl.NativeMem(r)
	if !ok {
		t.Fatal("not a native mem ref")
	}
	return m
}

// Benchmarks regenerating the paper's evaluation, one per table/figure.
// See DESIGN.md for the experiment index (E1-E8) and EXPERIMENTS.md for
// recorded results. The avabench command prints the same data as formatted
// tables; these wrappers integrate it with `go test -bench`.
package ava_test

import (
	"fmt"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/fleet"
	"ava/internal/fullvirt"
	"ava/internal/guest"
	"ava/internal/host"
	"ava/internal/mvnc"
	"ava/internal/rodinia"
	"ava/internal/server"
	"ava/internal/swap"
)

func benchSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:           "bench-gpu",
			MemoryBytes:    2 << 30,
			ComputeUnits:   8,
			KernelOverhead: 8 * time.Microsecond,
			DMALatency:     10 * time.Microsecond,
			DMABandwidth:   12e9,
		}},
	})
}

func benchStack(b *testing.B, opts ...guest.Option) (*ava.Stack, *cl.RemoteClient) {
	b.Helper()
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, benchSilo())
	stack := ava.NewStack(desc, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "bench-vm"}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stack.Close)
	return stack, cl.NewRemote(lib)
}

// BenchmarkFigure5 is E1: end-to-end Rodinia + Inception, native vs AvA.
// The per-workload relative runtimes are the bars of the paper's Figure 5.
func BenchmarkFigure5(b *testing.B) {
	for _, w := range rodinia.All() {
		w := w
		b.Run(w.Name+"/native", func(b *testing.B) {
			c := cl.NewNative(benchSilo())
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.Name+"/ava", func(b *testing.B) {
			_, c := benchStack(b)
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("inception/native", func(b *testing.B) {
		c := mvnc.NewNative(mvnc.NewSilo(mvnc.Config{}))
		for i := 0; i < b.N; i++ {
			if _, err := mvnc.RunInception(c, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inception/ava", func(b *testing.B) {
		desc := mvnc.Descriptor()
		reg := server.NewRegistry(desc)
		mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{}))
		stack := ava.NewStack(desc, reg)
		b.Cleanup(stack.Close)
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "ncs"})
		if err != nil {
			b.Fatal(err)
		}
		c := mvnc.NewRemote(lib)
		for i := 0; i < b.N; i++ {
			if _, err := mvnc.RunInception(c, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAsyncAblation is E2: the §5 optimization experiment — the same
// call-intensive workload with asynchronous forwarding disabled
// (the unoptimized specification) and enabled.
func BenchmarkAsyncAblation(b *testing.B) {
	for _, name := range []string{"gaussian", "pathfinder"} {
		w, _ := rodinia.ByName(name)
		b.Run(name+"/sync-only", func(b *testing.B) {
			_, c := benchStack(b, guest.WithForceSync())
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/async", func(b *testing.B) {
			_, c := benchStack(b)
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullVirtBaseline is E3: the §2 motivation numbers. The fullvirt
// figure reports modeled time (traps x vm-exit cost + real emulation);
// compare against BenchmarkFigure5 vector paths for the AvA side.
func BenchmarkFullVirtBaseline(b *testing.B) {
	const n = 1 << 13
	a := make([]float32, n)
	v := make([]float32, n)
	b.Run("fullvirt-modeled", func(b *testing.B) {
		var modeled time.Duration
		for i := 0; i < b.N; i++ {
			dev := fullvirt.New(fullvirt.Config{})
			start := time.Now()
			if _, _, err := dev.GuestVectorAdd(a, v); err != nil {
				b.Fatal(err)
			}
			modeled += time.Since(start) + dev.ModeledTrapTime()
		}
		b.ReportMetric(float64(modeled.Nanoseconds())/float64(b.N), "modeled-ns/op")
	})
}

// BenchmarkSharing is E4: two VMs contending through the router under the
// fair scheduler.
func BenchmarkSharing(b *testing.B) {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, benchSilo())
	stack := ava.NewStack(desc, reg)
	b.Cleanup(stack.Close)
	lib1, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		b.Fatal(err)
	}
	lib2, err := stack.AttachVM(ava.VMConfig{ID: 2, Name: "vm2"})
	if err != nil {
		b.Fatal(err)
	}
	w, _ := rodinia.ByName("lud")
	c1, c2 := cl.NewRemote(lib1), cl.NewRemote(lib2)
	for i := 0; i < b.N; i++ {
		done := make(chan error, 2)
		go func() { _, err := w.Run(c1, 1); done <- err }()
		go func() { _, err := w.Run(c2, 1); done <- err }()
		for j := 0; j < 2; j++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSwap is E5: a write/read cycle over 2x oversubscribed device
// memory, every allocation surviving through buffer-granularity swapping.
func BenchmarkSwap(b *testing.B) {
	const devMem = 8 << 20
	const bufSize = 1 << 20
	const count = 2 * devMem / bufSize
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "small-gpu", MemoryBytes: devMem, ComputeUnits: 2}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	swap.NewManager(silo).Install(reg)
	stack := ava.NewStack(desc, reg)
	b.Cleanup(stack.Close)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
	if err != nil {
		b.Fatal(err)
	}
	c := cl.NewRemote(lib)
	ps, _ := c.PlatformIDs()
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, _ := c.CreateContext(ds)
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	bufs := make([]cl.Ref, count)
	for i := range bufs {
		bufs[i], err = c.CreateBuffer(ctx, 1, bufSize)
		if err != nil {
			b.Fatal(err)
		}
	}
	data := make([]byte, bufSize)
	b.SetBytes(int64(count * bufSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bufs {
			if err := c.EnqueueWrite(q, bufs[j], true, 0, data); err != nil {
				b.Fatal(err)
			}
		}
		for j := range bufs {
			if err := c.EnqueueRead(q, bufs[j], true, 0, data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMigration is E6: Stack.MigrateVM of a populated VM between two
// hosts, timed from the checkpoint to the first call answered on the
// destination (the replay of the record log and the buffer restore lie in
// between).
func BenchmarkMigration(b *testing.B) {
	const n = 64 << 10
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loc := fleet.NewRegistry(0, nil)
		var hosts []*host.Server
		for _, id := range []string{"host-a", "host-b"} {
			reg := server.NewRegistry(cl.Descriptor())
			cl.BindServer(reg, benchSilo())
			h, err := host.Start(server.New(reg), host.Config{Listen: "127.0.0.1:0", API: "opencl", Locator: loc, ID: id})
			if err != nil {
				b.Fatal(err)
			}
			hosts = append(hosts, h)
		}
		stack := ava.NewStack(cl.Descriptor(), nil, ava.WithPlacement(ava.PlacementConfig{Locator: loc}))
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
		if err != nil {
			b.Fatal(err)
		}
		c := cl.NewRemote(lib)
		ps, _ := c.PlatformIDs()
		ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
		ctx, _ := c.CreateContext(ds)
		q, _ := c.CreateQueue(ctx, ds[0], 0)
		for j := 0; j < 8; j++ {
			buf, err := c.CreateBuffer(ctx, 1, n)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.EnqueueWrite(q, buf, true, 0, make([]byte, n)); err != nil {
				b.Fatal(err)
			}
		}
		to := "host-b"
		if stack.VMHost(1) == to {
			to = "host-a"
		}
		b.StartTimer()

		if err := stack.MigrateVM(1, to); err != nil {
			b.Fatal(err)
		}
		if err := c.Finish(q); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if at := stack.VMHost(1); at != to {
			b.Fatalf("VM serves from %q after migrating to %s", at, to)
		}
		stack.Close()
		for _, h := range hosts {
			h.Kill()
		}
		b.StartTimer()
	}
}

// BenchmarkTransports is E8: one sync call round trip over each transport.
func BenchmarkTransports(b *testing.B) {
	run := func(b *testing.B, kind ava.TransportKind) {
		desc := cl.Descriptor()
		reg := server.NewRegistry(desc)
		cl.BindServer(reg, benchSilo())
		stack := ava.NewStack(desc, reg, ava.WithTransport(kind))
		b.Cleanup(stack.Close)
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
		if err != nil {
			b.Fatal(err)
		}
		c := cl.NewRemote(lib)
		ps, _ := c.PlatformIDs()
		ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
		ctx, err := c.CreateContext(ds)
		if err != nil {
			b.Fatal(err)
		}
		q, _ := c.CreateQueue(ctx, ds[0], 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Finish(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("inproc", func(b *testing.B) { run(b, ava.TransportInProc) })
	b.Run("shm-ring", func(b *testing.B) { run(b, ava.TransportRing) })
}

// BenchmarkCallOverhead measures the raw per-call cost of the remoting
// stack, the quantity amortized against kernel time in every experiment:
// a synchronous no-output call (clFinish) and an asynchronous batched call
// (clSetKernelArg), through cl.NewRemote — that is, through the generated
// stubs and the engine's typed entry, the path every workload takes — and
// the repository benchmark's calls op, the two together: three buffer and
// one scalar clSetKernelArg batched behind one clFinish, one frame per op.
func BenchmarkCallOverhead(b *testing.B) {
	_, c := benchStack(b)
	ps, _ := c.PlatformIDs()
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, _ := c.CreateContext(ds)
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	prog, _ := c.CreateProgram(ctx, "vector_add")
	if err := c.BuildProgram(prog, ""); err != nil {
		b.Fatal(err)
	}
	kern, _ := c.CreateKernel(prog, "vector_add")
	buf, err := c.CreateBuffer(ctx, 1, 4096)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("sync-round-trip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Finish(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async-batched", func(b *testing.B) {
		b.ReportAllocs()
		arg := cl.ArgU32(7)
		for i := 0; i < b.N; i++ {
			if err := c.SetKernelArgScalar(kern, 3, arg); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Finish(q); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("calls-op", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for a := uint32(0); a < 3; a++ {
				if err := c.SetKernelArgBuffer(kern, a, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.SetKernelArgScalar(kern, 3, cl.ArgU32(uint32(i+1))); err != nil {
				b.Fatal(err)
			}
			if err := c.Finish(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEffort is E7 as a compile-speed metric: generating the full
// OpenCL stack from its specification.
func BenchmarkEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		desc, err := ava.CompileSpec(cl.Spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(desc.Funcs) != 39 {
			b.Fatal("wrong function count")
		}
	}
}

// BenchmarkBatchingWindow ablates the guest's async batch window (DESIGN
// calls this out as a design choice): 1 = flush after every async call
// (pure per-call forwarding), larger windows coalesce more calls per
// transport frame.
func BenchmarkBatchingWindow(b *testing.B) {
	w, _ := rodinia.ByName("gaussian")
	for _, window := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			_, c := benchStack(b, guest.WithBatchLimit(window))
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

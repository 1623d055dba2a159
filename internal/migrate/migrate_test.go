package migrate_test

import (
	"bytes"
	"strings"
	"testing"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/migrate"
	"ava/internal/mvnc"
	"ava/internal/server"
)

// migrationFleet is two API-server machines announcing to one fleet
// registry, each with its own fresh silo — the source and the destination
// of a migration.
type migrationFleet struct {
	loc     *fleet.Registry
	servers map[string]*server.Server // by host ID
}

// startFleet boots host-a and host-b serving api, each over a registry
// newReg binds to a silo of its own (handlers plus object-state adapter).
func startFleet(t *testing.T, api string, newReg func() *server.Registry) *migrationFleet {
	t.Helper()
	f := &migrationFleet{loc: fleet.NewRegistry(0, nil), servers: make(map[string]*server.Server)}
	for _, id := range []string{"host-a", "host-b"} {
		srv := server.New(newReg())
		h, err := host.Start(srv, host.Config{Listen: "127.0.0.1:0", API: api, Locator: f.loc, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Kill)
		f.servers[id] = srv
	}
	return f
}

func clFleet(t *testing.T) *migrationFleet {
	return startFleet(t, "opencl", func() *server.Registry {
		reg := server.NewRegistry(cl.Descriptor())
		cl.BindServer(reg, cl.NewSilo(cl.Config{
			Devices: []devsim.Config{{Name: "gpu", MemoryBytes: 256 << 20, ComputeUnits: 4}},
		}))
		return reg
	})
}

// placedStack is the guest side: no local server, every VM placed out of
// the fleet. extra options apply after placement.
func (f *migrationFleet) placedStack(t *testing.T, desc *cava.Descriptor, extra ...ava.Option) *ava.Stack {
	t.Helper()
	stack := ava.NewStack(desc, nil, append([]ava.Option{
		ava.WithPlacement(ava.PlacementConfig{Locator: f.loc}),
	}, extra...)...)
	t.Cleanup(stack.Close)
	return stack
}

// migrateVM moves vm to the host it is not on and returns the destination.
// MigrateVM returns once the checkpoint is cut; the VM's next call waits
// out the recovery onto the destination.
func migrateVM(t *testing.T, stack *ava.Stack, vm uint32) string {
	t.Helper()
	to := "host-b"
	if stack.VMHost(vm) == to {
		to = "host-a"
	}
	if err := stack.MigrateVM(vm, to); err != nil {
		t.Fatal(err)
	}
	return to
}

// landed checks, after a call has run since migrateVM, that the VM serves
// from to, moved by exactly one recovery, and never failed a call back to
// the application.
func landed(t *testing.T, stack *ava.Stack, vm uint32, to string) {
	t.Helper()
	if at := stack.VMHost(vm); at != to {
		t.Fatalf("VM %d serves from %q, want %s", vm, at, to)
	}
	if n := stack.Guardian(vm).Stats().Recoveries; n != 1 {
		t.Fatalf("Recoveries = %d, want 1", n)
	}
	if n := stack.GuestLib(vm).Stats().RetryableFailed; n != 0 {
		t.Fatalf("RetryableFailed = %d, want 0", n)
	}
}

// appState is everything the guest application holds across the migration:
// its opaque handles.
type appState struct {
	ctx, q, a, b, out, prog, kern cl.Ref
	n                             uint32
}

func setupApp(t *testing.T, c cl.Client, n uint32) *appState {
	t.Helper()
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	st := &appState{n: n}
	if st.ctx, err = c.CreateContext(ds); err != nil {
		t.Fatal(err)
	}
	if st.q, err = c.CreateQueue(st.ctx, ds[0], 0); err != nil {
		t.Fatal(err)
	}
	if st.a, err = c.CreateBuffer(st.ctx, 1, uint64(4*n)); err != nil {
		t.Fatal(err)
	}
	if st.b, err = c.CreateBuffer(st.ctx, 1, uint64(4*n)); err != nil {
		t.Fatal(err)
	}
	if st.out, err = c.CreateBuffer(st.ctx, 1, uint64(4*n)); err != nil {
		t.Fatal(err)
	}
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i)
		bv[i] = float32(10 * i)
	}
	if err := c.EnqueueWrite(st.q, st.a, true, 0, bytesconv.Float32Bytes(av)); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueWrite(st.q, st.b, true, 0, bytesconv.Float32Bytes(bv)); err != nil {
		t.Fatal(err)
	}
	if st.prog, err = c.CreateProgram(st.ctx, "vector_add"); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(st.prog, ""); err != nil {
		t.Fatal(err)
	}
	if st.kern, err = c.CreateKernel(st.prog, "vector_add"); err != nil {
		t.Fatal(err)
	}
	c.SetKernelArgBuffer(st.kern, 0, st.a)
	c.SetKernelArgBuffer(st.kern, 1, st.b)
	c.SetKernelArgBuffer(st.kern, 2, st.out)
	c.SetKernelArgScalar(st.kern, 3, cl.ArgU32(n))
	if err := c.Finish(st.q); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkOut reads the application's out buffer and requires out[i] = 11i.
func checkOut(t *testing.T, c cl.Client, app *appState, what string) {
	t.Helper()
	out := make([]byte, 4*app.n)
	if err := c.EnqueueRead(app.q, app.out, true, 0, out); err != nil {
		t.Fatalf("%s: read: %v", what, err)
	}
	for i, v := range bytesconv.ToFloat32(out) {
		if v != float32(11*i) {
			t.Fatalf("%s: out[%d] = %v, want %v", what, i, v, float32(11*i))
		}
	}
}

func TestEndToEndMigration(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const n = 256
	f := clFleet(t)
	stack := f.placedStack(t, cl.Descriptor())
	lib, err := stack.AttachVM(ava.VMConfig{ID: 7, Name: "guest"})
	if err != nil {
		t.Fatal(err)
	}
	// Set up the application and run one launch so `out` has state.
	c := cl.NewRemote(lib)
	app := setupApp(t, c, n)
	if err := c.EnqueueNDRange(app.q, app.kern, []uint64{n}, []uint64{64}); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}

	to := migrateVM(t, stack, 7)
	// The application resumes with its ORIGINAL library and handles: read
	// the result produced before migration.
	checkOut(t, c, app, "pre-migration kernel result")
	landed(t, stack, 7, to)
	// The checkpoint carried the three buffers' contents.
	if got := stack.Guardian(7).Stats().LastCkptFootprint; got != 3*4*n {
		t.Fatalf("checkpoint covered %d bytes of object state, want %d", got, 3*4*n)
	}

	// And it can keep computing: kernel args survived via replay.
	if err := c.EnqueueNDRange(app.q, app.kern, []uint64{n}, []uint64{64}); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	checkOut(t, c, app, "post-migration launch")
	if err := c.DeferredError(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationSkipsDestroyedObjects(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := clFleet(t)
	mirror := failover.NewMemoryMirror()
	stack := f.placedStack(t, cl.Descriptor(), ava.WithMirror(mirror))
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	app := setupApp(t, c, 64)

	// Create and destroy an extra buffer: its history leaves the record
	// log (Nooks-style pruning) and the destination never sees it.
	extra, err := c.CreateBuffer(app.ctx, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseBuffer(extra); err != nil {
		t.Fatal(err)
	}
	for _, rc := range mirror.State().Entries {
		if rc.Created == extra.Handle() {
			t.Fatal("destroyed buffer still in record log")
		}
	}

	to := migrateVM(t, stack, 1)
	if err := c.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	landed(t, stack, 1, to)
	if got := stack.Guardian(1).Stats().LastCkptFootprint; got != 3*4*64 {
		t.Fatalf("checkpoint covered %d bytes of object state, want the three live buffers' %d", got, 3*4*64)
	}
	if _, ok := f.servers[to].Lookup(1).Handles.Get(extra.Handle()); ok {
		t.Fatal("destroyed buffer recreated on the destination")
	}
}

// TestMigrationWithWorkInFlight moves a VM whose asynchronous calls —
// kernel arguments and non-blocking writes — are queued behind no sync
// barrier yet: they must land exactly once, in order, on one host or the
// other, and the application's results must be byte-identical to a run
// that never moved. A buffer destroyed before the move stays destroyed.
func TestMigrationWithWorkInFlight(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const n = 1024
	run := func(move bool) []byte {
		f := clFleet(t)
		stack := f.placedStack(t, cl.Descriptor())
		lib, err := stack.AttachVM(ava.VMConfig{ID: 3, Name: "busy"})
		if err != nil {
			t.Fatal(err)
		}
		c := cl.NewRemote(lib)
		ps, _ := c.PlatformIDs()
		ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
		ctx, err := c.CreateContext(ds)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := c.CreateQueue(ctx, ds[0], 0)
		var bufs [3]cl.Ref
		for i := range bufs {
			if bufs[i], err = c.CreateBuffer(ctx, 1, 4*n); err != nil {
				t.Fatal(err)
			}
		}
		gone, err := c.CreateBuffer(ctx, 1, 4*n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ReleaseBuffer(gone); err != nil {
			t.Fatal(err)
		}
		prog, _ := c.CreateProgram(ctx, "vector_add")
		if err := c.BuildProgram(prog, ""); err != nil {
			t.Fatal(err)
		}
		kern, err := c.CreateKernel(prog, "vector_add")
		if err != nil {
			t.Fatal(err)
		}

		// Queued, not yet fenced by any sync call.
		av, bv := make([]float32, n), make([]float32, n)
		for i := range av {
			av[i], bv[i] = float32(3*i), float32(i*i%977)
		}
		c.SetKernelArgBuffer(kern, 0, bufs[0])
		c.SetKernelArgBuffer(kern, 1, bufs[1])
		c.SetKernelArgBuffer(kern, 2, bufs[2])
		c.SetKernelArgScalar(kern, 3, cl.ArgU32(n))
		if err := c.EnqueueWrite(q, bufs[0], false, 0, bytesconv.Float32Bytes(av)); err != nil {
			t.Fatal(err)
		}
		if err := c.EnqueueWrite(q, bufs[1], false, 0, bytesconv.Float32Bytes(bv)); err != nil {
			t.Fatal(err)
		}
		var to string
		if move {
			to = migrateVM(t, stack, 3)
		}
		if err := c.Finish(q); err != nil {
			t.Fatal(err)
		}
		if err := c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{64}); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4*n)
		if err := c.EnqueueRead(q, bufs[2], true, 0, out); err != nil {
			t.Fatal(err)
		}
		if err := c.DeferredError(); err != nil {
			t.Fatal(err)
		}
		if move {
			landed(t, stack, 3, to)
			if _, ok := f.servers[to].Lookup(3).Handles.Get(gone.Handle()); ok {
				t.Fatal("a buffer destroyed before the move exists on the destination")
			}
		}
		return out
	}
	want, got := run(false), run(true)
	if !bytes.Equal(got, want) {
		t.Fatal("results after a migration with work in flight differ from an unmigrated run")
	}
}

// A log naming a function the descriptor does not know cannot be replayed.
func TestRestoreUnknownFunction(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// The engine refuses the entry before it reaches a target.
	err := migrate.Replay(nil, cl.Descriptor(), []migrate.RecordedCall{{Func: 9999}}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

func TestMVNCMigrationByReplay(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Replay rebuilds the device and the graph; the adapter mvnc.BindServer
	// installed carries the graph's option values and queued results.
	f := startFleet(t, mvnc.Descriptor().Name, func() *server.Registry {
		reg := server.NewRegistry(mvnc.Descriptor())
		mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: 1}))
		return reg
	})
	stack := f.placedStack(t, mvnc.Descriptor())
	lib, err := stack.AttachVM(ava.VMConfig{ID: 2, Name: "ncs"})
	if err != nil {
		t.Fatal(err)
	}
	c := mvnc.NewRemote(lib)
	d, err := c.OpenDevice(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.AllocateGraph(d, "g", mvnc.GraphBlob("inception_v3_sim", 42, 10, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetGraphOption(g, 1, 1234); err != nil {
		t.Fatal(err)
	}

	to := migrateVM(t, stack, 2)
	// Original graph handle works; the replayed option survived.
	v, err := c.GetGraphOption(g, 1)
	if err != nil || v != 1234 {
		t.Fatalf("option after migration = %d, %v", v, err)
	}
	landed(t, stack, 2, to)
	// Inference still works on the destination.
	img := make([]byte, 3*64*64*4)
	if err := c.LoadTensor(g, img); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 10*4)
	if err := c.GetResult(g, out); err != nil {
		t.Fatal(err)
	}
}

package migrate_test

import (
	"bytes"
	"strings"
	"testing"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/mvnc"
	"ava/internal/server"
)

func newStack(t *testing.T) *ava.Stack {
	t.Helper()
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "gpu", MemoryBytes: 256 << 20, ComputeUnits: 4}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	stack := ava.NewStack(desc, reg, ava.WithRecording())
	t.Cleanup(stack.Close)
	return stack
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

func TestEndToEndMigration(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const n = 256

	// Source: set up the application, run one launch so `out` has state.
	src := newStack(t)
	lib1, err := src.AttachVM(ava.VMConfig{ID: 7, Name: "guest"})
	if err != nil {
		t.Fatal(err)
	}
	c1 := cl.NewRemote(lib1)
	app := setupApp(t, c1, n)
	if err := c1.EnqueueNDRange(app.q, app.kern, []uint64{n}, []uint64{64}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Finish(app.q); err != nil {
		t.Fatal(err)
	}

	// Capture on the source; the context quiesces.
	srcCtx := src.Server.Context(7, "guest")
	snap, err := migrate.Capture(srcCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Post-capture calls are denied (suspended for migration).
	if err := c1.Finish(app.q); err == nil {
		t.Fatal("source accepted calls after capture")
	}

	// The snapshot crosses "the wire".
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := migrate.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Log) == 0 || len(snap2.Objects) != 3 {
		t.Fatalf("snapshot: %d log entries, %d stateful objects", len(snap2.Log), len(snap2.Objects))
	}

	// Destination: fresh silo, fresh server; restore, then attach the VM.
	dst := newStack(t)
	dstCtx := dst.Server.Context(7, "guest")
	if err := migrate.Restore(snap2, dst.Server, dstCtx); err != nil {
		t.Fatal(err)
	}
	lib2, err := dst.AttachVM(ava.VMConfig{ID: 7, Name: "guest"})
	if err != nil {
		t.Fatal(err)
	}
	c2 := cl.NewRemote(lib2)

	// The application resumes with its ORIGINAL handles: read the result
	// produced before migration.
	out := make([]byte, 4*n)
	if err := c2.EnqueueRead(app.q, app.out, true, 0, out); err != nil {
		t.Fatalf("post-migration read: %v", err)
	}
	res := bytesconv.ToFloat32(out)
	for i := 0; i < n; i++ {
		if res[i] != float32(11*i) {
			t.Fatalf("out[%d] = %v, want %v (pre-migration kernel result lost)", i, res[i], float32(11*i))
		}
	}

	// And it can keep computing: kernel args survived via replay.
	if err := c2.EnqueueNDRange(app.q, app.kern, []uint64{n}, []uint64{64}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Finish(app.q); err != nil {
		t.Fatal(err)
	}
	if err := c2.EnqueueRead(app.q, app.out, true, 0, out); err != nil {
		t.Fatal(err)
	}
	res = bytesconv.ToFloat32(out)
	for i := 0; i < n; i++ {
		if res[i] != float32(11*i) {
			t.Fatalf("post-migration launch wrong at %d: %v", i, res[i])
		}
	}
	if err := c2.DeferredError(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationSkipsDestroyedObjects(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	src := newStack(t)
	lib, _ := src.AttachVM(ava.VMConfig{ID: 1, Name: "g"})
	c := cl.NewRemote(lib)
	app := setupApp(t, c, 64)

	// Create and destroy an extra buffer: it must not appear in the
	// snapshot (Nooks-style pruning).
	extra, err := c.CreateBuffer(app.ctx, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseBuffer(extra); err != nil {
		t.Fatal(err)
	}

	ctx := src.Server.Context(1, "g")
	snap, err := migrate.Capture(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range snap.Log {
		if rc.Created == extra.Handle() {
			t.Fatal("destroyed buffer still in record log")
		}
	}
	if _, ok := snap.Objects[extra.Handle()]; ok {
		t.Fatal("destroyed buffer state captured")
	}
}

func TestThawAbortsMigration(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	src := newStack(t)
	lib, _ := src.AttachVM(ava.VMConfig{ID: 1, Name: "g"})
	c := cl.NewRemote(lib)
	app := setupApp(t, c, 64)

	ctx := src.Server.Context(1, "g")
	if _, err := migrate.Capture(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Thaw()
	if err := c.Finish(app.q); err != nil {
		t.Fatalf("calls still denied after thaw: %v", err)
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	snap := &migrate.Snapshot{
		VM:   3,
		Name: "vm3",
		Log: []server.RecordedCall{{
			Func: 5,
			Args: []marshal.Value{marshal.HandleVal(2), marshal.BytesVal([]byte{1, 2})},
			Ret:  marshal.HandleVal(9),
			Outs: []marshal.Value{marshal.Uint(4)},
		}},
		Objects: map[marshal.Handle][]byte{9: {1, 2, 3}},
	}
	b, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := migrate.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.VM != 3 || got.Name != "vm3" || len(got.Log) != 1 {
		t.Fatalf("decoded = %+v", got)
	}
	if !bytes.Equal(got.Objects[9], []byte{1, 2, 3}) {
		t.Fatal("object state lost")
	}
	if got.Log[0].Ret.Handle() != 9 {
		t.Fatal("log entry lost")
	}
}

func TestDecodeGarbage(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if _, err := migrate.Decode([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestRestoreUnknownFunction(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	dst := newStack(t)
	ctx := dst.Server.Context(9, "g")
	snap := &migrate.Snapshot{Log: []server.RecordedCall{{Func: 9999}}}
	err := migrate.Restore(snap, dst.Server, ctx)
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

func TestMVNCMigrationByReplay(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// Replay rebuilds the device and the graph; the adapter mvnc.BindServer
	// installed carries the graph's option values and queued results.
	mkStack := func() *ava.Stack {
		silo := mvnc.NewSilo(mvnc.Config{Sticks: 1})
		desc := mvnc.Descriptor()
		reg := server.NewRegistry(desc)
		mvnc.BindServer(reg, silo)
		st := ava.NewStack(desc, reg, ava.WithRecording())
		t.Cleanup(st.Close)
		return st
	}
	src := mkStack()
	lib, _ := src.AttachVM(ava.VMConfig{ID: 2, Name: "ncs"})
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

	snap, err := migrate.Capture(src.Server.Context(2, "ncs"))
	if err != nil {
		t.Fatal(err)
	}

	dst := mkStack()
	dstCtx := dst.Server.Context(2, "ncs")
	if err := migrate.Restore(snap, dst.Server, dstCtx); err != nil {
		t.Fatal(err)
	}
	lib2, _ := dst.AttachVM(ava.VMConfig{ID: 2, Name: "ncs"})
	c2 := mvnc.NewRemote(lib2)

	// Original graph handle works; the replayed option survived.
	v, err := c2.GetGraphOption(g, 1)
	if err != nil || v != 1234 {
		t.Fatalf("option after migration = %d, %v", v, err)
	}
	// Inference still works on the destination.
	img := make([]byte, 3*64*64*4)
	if err := c2.LoadTensor(g, img); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 10*4)
	if err := c2.GetResult(g, out); err != nil {
		t.Fatal(err)
	}
}

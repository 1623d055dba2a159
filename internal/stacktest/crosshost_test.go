// Cross-host recovery tests: a guardian (host-stack) loss survived through
// a mirrored shadow log, and a whole-machine kill survived by failing over
// to a fleet peer — the E13 acceptance properties.
package stacktest_test

import (
	"ava/internal/leaktest"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/mvnc"
	"ava/internal/rodinia"
	"ava/internal/server"
)

// TestMirrorRehydrationAfterGuardianLoss loses the ENTIRE first stack —
// guardian, server and silo — and rebuilds from nothing but the mirrored
// shadow log: a replacement guardian rehydrates from the mirror's state,
// replays it onto a fresh silo before any traffic flows, and the guest's
// saved handles read back byte-identical content. Before the replicated
// shadow log existed this had to fail: the shadow log died with the
// guardian and the new silo came up empty. Neither stack sets
// FailoverConfig.Adapter: the buffer's bytes are captured and restored
// through the adapter cl.BindServer put on each registry (when the adapter
// was handed in per stack, rehydrating object state onto one that set none
// dereferenced nil).
func TestMirrorRehydrationAfterGuardianLoss(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	mirror := failover.NewMemoryMirror()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}

	// First life: write the payload, checkpoint so the mirror holds both
	// the record log and the object snapshot, then lose everything.
	silo1 := foSilo()
	cfg1 := foConfig()
	cfg1.Replication.Sink = mirror
	stack1 := foStack(silo1, ava.WithFailover(cfg1))
	lib1, err := stack1.AttachVM(ava.VMConfig{ID: 1, Name: "mirror-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c1 := cl.NewRemote(lib1)
	ctx, q, buf := clSetup(t, c1)
	if err := c1.EnqueueWrite(q, buf, true, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := c1.Finish(q); err != nil {
		t.Fatal(err)
	}
	if err := stack1.Guardian(1).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := mirror.State()
	if st.W == 0 || len(st.Objects) == 0 {
		t.Fatalf("mirror missed the checkpoint: w=%d objects=%d", st.W, len(st.Objects))
	}
	stack1.Close() // guardian, server and silo all gone

	// Second life: a fresh silo on a "different host", rehydrated purely
	// from the mirror before the replacement guardian serves any call.
	silo2 := foSilo()
	cfg2 := foConfig()
	cfg2.Replication.Restore = st
	stack2 := foStack(silo2, ava.WithFailover(cfg2))
	defer stack2.Close()
	lib2, err := stack2.AttachVM(ava.VMConfig{ID: 1, Name: "mirror-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c2 := cl.NewRemote(lib2)

	// The guest's saved handle values must remain valid: rehydration
	// replays the mirrored creates and rebinds them to the recorded
	// handles, then restores buffer state from the snapshot.
	got := make([]byte, len(payload))
	if err := c2.EnqueueRead(q, buf, true, 0, got); err != nil {
		t.Fatalf("read through rehydrated stack: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("rehydrated buffer differs from the mirrored state")
	}
	_ = ctx
}

// TestRemoteMirrorRehydrationAcrossMachines is the cross-machine version
// of the test above: the mirror lives on a separate machine (the mirror
// listener an avad -mirror process serves), replication rides the fleet
// wire, and the replacement guardian rehydrates from FetchMirrorState.
// Nothing survives the first stack's death except the mirror host — the
// exact situation a whole-machine loss leaves a replacement guardian in.
func TestRemoteMirrorRehydrationAcrossMachines(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// The mirror machine: an `avad -mirror` serving no VM of its own.
	mh, err := host.Start(server.New(server.NewRegistry(cl.Descriptor())), host.Config{
		Listen: "127.0.0.1:0", Mirror: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mh.Kill()

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*5 + 1)
	}

	// First life on machine one: replicate over the wire, checkpoint, die.
	silo1 := foSilo()
	cfg1 := foConfig()
	cfg1.Replication.RemoteAddr = mh.MirrorAddr()
	stack1 := foStack(silo1, ava.WithFailover(cfg1))
	lib1, err := stack1.AttachVM(ava.VMConfig{ID: 1, Name: "remote-mirror-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c1 := cl.NewRemote(lib1)
	_, q, buf := clSetup(t, c1)
	if err := c1.EnqueueWrite(q, buf, true, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := c1.Finish(q); err != nil {
		t.Fatal(err)
	}
	if err := stack1.Guardian(1).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	stack1.Close() // detach drains the remote mirror; then machine one is gone

	// The replacement machine has only the mirror host's address and the
	// VM id. Everything else comes over the wire.
	st, err := failover.FetchMirrorState(mh.MirrorAddr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.W == 0 || len(st.Objects) == 0 {
		t.Fatalf("mirror host missed the replication: w=%d objects=%d", st.W, len(st.Objects))
	}

	// Second life: fresh silo, rehydrated from the fetched state.
	silo2 := foSilo()
	cfg2 := foConfig()
	cfg2.Replication.Restore = st
	stack2 := foStack(silo2, ava.WithFailover(cfg2))
	defer stack2.Close()
	lib2, err := stack2.AttachVM(ava.VMConfig{ID: 1, Name: "remote-mirror-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c2 := cl.NewRemote(lib2)
	got := make([]byte, len(payload))
	if err := c2.EnqueueRead(q, buf, true, 0, got); err != nil {
		t.Fatalf("read through rehydrated stack: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("rehydrated buffer differs from the state fetched off the mirror host")
	}
}

// clSetup builds the minimal context/queue/buffer triple used by the
// rehydration test and returns the guest-visible refs.
func clSetup(t *testing.T, c *cl.RemoteClient) (ctx, q, buf cl.Ref) {
	t.Helper()
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	if ctx, err = c.CreateContext(ds); err != nil {
		t.Fatal(err)
	}
	if q, err = c.CreateQueue(ctx, ds[0], 0); err != nil {
		t.Fatal(err)
	}
	if buf, err = c.CreateBuffer(ctx, 0, 4096); err != nil {
		t.Fatal(err)
	}
	return ctx, q, buf
}

// newChaosHost starts one standalone "machine" — its own silo and server
// behind the production host runtime — announced to the fleet when loc is
// set, reached by address otherwise, and kills it when the test ends.
func newChaosHost(t *testing.T, loc fleet.Locator, id string) *host.Server {
	t.Helper()
	h, _ := newChaosMachine(t, loc, id)
	return h
}

// newChaosMachine is newChaosHost for tests that also inspect the machine's
// API server.
func newChaosMachine(t *testing.T, loc fleet.Locator, id string) (*host.Server, *server.Server) {
	t.Helper()
	silo := foSilo()
	reg := server.NewRegistry(cl.Descriptor())
	cl.BindServer(reg, silo)
	srv := server.New(reg)
	h, err := host.Start(srv, host.Config{
		Listen: "127.0.0.1:0", API: "opencl", Locator: loc, ID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Kill)
	return h, srv
}

// TestCrossHostKillMidRodinia kills the machine serving the VM in the
// middle of the Rodinia gaussian workload and requires completion on a
// fleet peer with a byte-identical checksum — fixed backoff seed, so the
// recovery schedule is reproducible run to run.
func TestCrossHostKillMidRodinia(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		t.Fatal("gaussian workload missing")
	}

	run := func(killAfter time.Duration) (sum float64, dur time.Duration, moves int, servedBy string) {
		loc := fleet.NewRegistry(0, nil)
		// Equal announced load: the ranking's ID tie-break lands the first
		// dial on host-a.
		hostA := newChaosHost(t, loc, "host-a")
		newChaosHost(t, loc, "host-b")
		stack := ava.NewStack(cl.Descriptor(), nil,
			ava.WithTransport(ava.TransportRing),
			ava.WithFailover(ava.FailoverConfig{
				Checkpoint: ava.CheckpointConfig{Every: 64},
				Backoff:    failover.BackoffConfig{Seed: 7},
			}),
			ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "opencl"}))
		defer stack.Close()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "chaos-vm"})
		if err != nil {
			t.Fatal(err)
		}
		if killAfter > 0 {
			go func() {
				time.Sleep(killAfter)
				hostA.Kill()
			}()
		}
		start := time.Now()
		sum, err = w.Run(cl.NewRemote(lib), 1)
		dur = time.Since(start)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		if rf := lib.Stats().RetryableFailed; rf != 0 {
			t.Fatalf("%d calls dropped", rf)
		}
		for _, d := range stack.SchedDecisions() {
			if d.Kind == "failover" {
				moves++
			}
		}
		return sum, dur, moves, stack.VMHost(1)
	}

	want, baseDur, _, _ := run(0)
	delay := baseDur / 3
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	got, _, moves, servedBy := run(delay)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("checksum after cross-host kill: %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
	if moves < 1 {
		t.Fatalf("no cross-host move recorded: host %q", servedBy)
	}
	if servedBy != "host-b" {
		t.Fatalf("finished on %q, want host-b", servedBy)
	}
}

// mvncInference queues one inference per tensor id (every input different,
// so results are distinguishable), makes sure they reached the server, lets
// between run, and then reads the results back in order.
func mvncInference(t *testing.T, c mvnc.Client, g mvnc.Ref, ids []int, between func()) []byte {
	t.Helper()
	img := make([]byte, 3*64*64*4)
	for _, id := range ids {
		for px := 0; px < len(img); px += 4 {
			binary.LittleEndian.PutUint32(img[px:], math.Float32bits(float32(id)+float32(px%97)/97))
		}
		if err := c.LoadTensor(g, img); err != nil {
			t.Fatal(err)
		}
	}
	// LoadTensor is asynchronous; a synchronous call flushes the batch.
	if _, err := c.GetGraphOption(g, 1); err != nil {
		t.Fatal(err)
	}
	between()
	var out []byte
	for range ids {
		res := make([]byte, 10*4)
		if err := c.GetResult(g, res); err != nil {
			t.Fatalf("GetResult: %v", err)
		}
		out = append(out, res...)
	}
	return out
}

// TestMVNCCrossHostKillBetweenLoadAndGetResult kills the machine serving an
// MVNC graph after its inferences were queued and before their results were
// read. The result FIFO is the one MVNC state replay cannot rebuild —
// GetResult consumes it — so it has to travel: captured off the first
// machine by the guardian's FuncSnapshot calls, restored onto the peer by
// FuncRestore. Both machines' registries are what mvnc.BindServer leaves and
// nothing else, as `avad -api mvnc` builds them. (When a registry's builder
// had to add the object-state adapter by hand, avad did so for opencl only:
// an mvnc host refused every snapshot, no checkpoint ever committed, and the
// watermark never moved.)
func TestMVNCCrossHostKillBetweenLoadAndGetResult(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	machine := func(loc fleet.Locator, id string) *host.Server {
		reg := server.NewRegistry(mvnc.Descriptor())
		mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: 1}))
		h, err := host.Start(server.New(reg), host.Config{Listen: "127.0.0.1:0", API: "mvnc", Locator: loc, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Kill)
		return h
	}
	blob := mvnc.GraphBlob("inception_v3_sim", 42, 10, 2048)
	batches := [][]int{{1, 2, 3, 4}, {5, 6}}

	native := mvnc.NewNative(mvnc.NewSilo(mvnc.Config{Sticks: 1}))
	nd, _ := native.OpenDevice(0)
	ng, err := native.AllocateGraph(nd, "g", blob)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, ids := range batches {
		want = append(want, mvncInference(t, native, ng, ids, func() {})...)
	}

	loc := fleet.NewRegistry(0, nil)
	hostA := machine(loc, "host-a") // equal load: the ID tie-break dials host-a first
	machine(loc, "host-b")
	stack := ava.NewStack(mvnc.Descriptor(), nil,
		ava.WithFailover(ava.FailoverConfig{
			Checkpoint: ava.CheckpointConfig{Every: 2},
			Backoff:    failover.BackoffConfig{Seed: 7},
		}),
		ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "mvnc"}))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "ncs-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := mvnc.NewRemote(lib)
	dev, err := c.OpenDevice(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.AllocateGraph(dev, "g", blob)
	if err != nil {
		t.Fatal(err)
	}
	guardian := stack.Guardian(1)
	got := mvncInference(t, c, g, batches[0], func() {
		// The watermark passes the queued results, so only the checkpoint
		// can bring them back; then the machine dies.
		if err := guardian.CheckpointNow(); err != nil {
			t.Fatalf("checkpoint of the mvnc host: %v", err)
		}
		hostA.Kill()
	})
	got = append(got, mvncInference(t, c, g, batches[1], func() {})...)
	if !bytes.Equal(got, want) {
		t.Fatal("results after the cross-host kill differ from the native run's")
	}
	st := guardian.Stats()
	if st.Checkpoints == 0 || st.Recoveries != 1 {
		t.Fatalf("guardian: %+v (last checkpoint failure: %v)", st, guardian.CheckpointErr())
	}
	if by := stack.VMHost(1); by != "host-b" {
		t.Fatalf("finished on %q, want host-b", by)
	}
	if rf := lib.Stats().RetryableFailed; rf != 0 {
		t.Fatalf("%d calls dropped", rf)
	}
}

// Shadow-log compaction end to end: clSetKernelArg is a keyed modify
// (track(modify, kernel, arg_index)), so each checkpoint drops the
// argument values a newer call replaced, and a kill after it must still
// replay the newest one.
package stacktest_test

import (
	"encoding/binary"
	"math"
	"os"
	"testing"

	"ava"
	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/leaktest"
	"ava/internal/mvnc"
)

// The shipped specs key exactly the modifies a later call overwrites:
// clSetKernelArg by arg_index and mvncSetGraphOption by option. A rebuild
// (clBuildProgram) and toydev's scale compound on what came before, so
// they stay unkeyed and every call of theirs is replayed.
func TestShippedSpecsKeyOverwritingModifies(t *testing.T) {
	toydev, err := os.ReadFile("../gen/toydev/toydev.ava")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		desc *cava.Descriptor
		fn   string
		key  int
	}{
		{cl.Descriptor(), "clSetKernelArg", 1},
		{cl.Descriptor(), "clBuildProgram", -1},
		{mvnc.Descriptor(), "mvncSetGraphOption", 1},
		{cava.MustCompile(string(toydev)), "scale", -1},
	} {
		fd, ok := tc.desc.Lookup(tc.fn)
		if !ok {
			t.Fatalf("%s missing", tc.fn)
		}
		if fd.TrackKeyIdx != tc.key {
			t.Errorf("%s: TrackKeyIdx = %d, want %d", tc.fn, fd.TrackKeyIdx, tc.key)
		}
	}
}

// kernelSession opens a queue, three n-float buffers (a = i+1, b = 2(i+1),
// out untouched) and a vector_add kernel with its three buffer arguments
// set, and finishes the queue so the guardian has seen every call.
type kernelSession struct {
	c                  *cl.RemoteClient
	q, a, b, out, kern cl.Ref
	n                  int
}

func openKernelSession(t *testing.T, c *cl.RemoteClient, n int) *kernelSession {
	t.Helper()
	ctx, q, a := clSetup(t, c)
	b, err := c.CreateBuffer(ctx, 1, uint64(4*n))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.CreateBuffer(ctx, 1, uint64(4*n))
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
	host := make([]byte, 4*n)
	for k, m := range []cl.Ref{a, b} {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32((k+1)*(i+1))))
		}
		if err := c.EnqueueWrite(q, m, true, 0, host); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range []cl.Ref{a, b, out} {
		if err := c.SetKernelArgBuffer(kern, uint32(i), m); err != nil {
			t.Fatal(err)
		}
	}
	s := &kernelSession{c: c, q: q, a: a, b: b, out: out, kern: kern, n: n}
	s.finish(t)
	return s
}

// finish flushes the asynchronous calls the guest has batched.
func (s *kernelSession) finish(t *testing.T) {
	t.Helper()
	if err := s.c.Finish(s.q); err != nil {
		t.Fatal(err)
	}
}

// launch runs the kernel over every element and reads out back.
func (s *kernelSession) launch(t *testing.T) []byte {
	t.Helper()
	if err := s.c.EnqueueNDRange(s.q, s.kern, []uint64{uint64(s.n)}, []uint64{64}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4*s.n)
	if err := s.c.EnqueueRead(s.q, s.out, true, 0, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// addedCount is how many leading elements of a launch's output hold
// a+b = 3(i+1); the rest must still be zero.
func addedCount(t *testing.T, out []byte) int {
	t.Helper()
	n := 0
	for i := 0; i < len(out)/4; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:]))
		switch {
		case v == float32(3*(i+1)) && n == i:
			n++
		case v != 0:
			t.Fatalf("out[%d] = %v: neither a+b nor untouched", i, v)
		}
	}
	return n
}

// Argument 3 (the element count) is set anew before each of five
// checkpoints, each of which compacts the shadow log; the server is killed
// after the last one. Replay must leave the kernel with the newest count —
// not the first, not none — so the relaunch adds exactly that many
// elements.
func TestFailoverKillAfterCompactionKeepsNewestKernelArg(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	cfg := foConfig()
	cfg.Checkpoint.Every = 0 // only the checkpoints cut below
	stack := foStack(foSilo(), ava.WithFailover(cfg))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "compact-vm"})
	if err != nil {
		t.Fatal(err)
	}
	g := stack.Guardian(1)
	s := openKernelSession(t, cl.NewRemote(lib), 256)
	counts := []uint32{16, 200, 64, 32, 96}
	for _, count := range counts {
		if err := s.c.SetKernelArgScalar(s.kern, 3, cl.ArgU32(count)); err != nil {
			t.Fatal(err)
		}
		s.finish(t)
		if err := g.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.Stats().Superseded, uint64(len(counts)-1); got != want {
		t.Fatalf("compaction dropped %d superseded kernel args, want %d (every count but the newest)", got, want)
	}
	if err := stack.KillServer(1); err != nil {
		t.Fatal(err)
	}
	waitRecovered(t, g, 1)
	if got, want := addedCount(t, s.launch(t)), int(counts[len(counts)-1]); got != want {
		t.Fatalf("relaunch after recovery added %d elements, want the newest count %d", got, want)
	}
	if n := lib.Stats().RetryableFailed; n != 0 {
		t.Fatalf("%d calls surfaced as retryable failures", n)
	}
}

// The guardian's shadow log stops growing with history: across 10 000
// serve-shaped ops (async write, four clSetKernelArg, launch, blocking
// read) with a checkpoint every 1024 calls, it never holds more than what
// setup recorded, the four live argument slots, and the calls past the
// watermark — where without compaction it gains four entries per op.
func TestShadowLogBoundedByLiveStateUnderServeLoad(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	cfg := foConfig()
	cfg.Checkpoint.Every = 1024
	stack := foStack(foSilo(), ava.WithFailover(cfg))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "bound-vm"})
	if err != nil {
		t.Fatal(err)
	}
	g := stack.Guardian(1)
	const n, ops, slots = 256, 10000, 4
	s := openKernelSession(t, cl.NewRemote(lib), n)
	setup := g.Stats().LogEntries - (slots - 1) // creates, configs, the build; args 0-2 are slots
	input := make([]byte, 4*n)
	var peak uint64
	for op := 0; op < ops; op++ {
		binary.LittleEndian.PutUint32(input, uint32(op))
		if err := s.c.EnqueueWrite(s.q, s.a, false, 0, input); err != nil {
			t.Fatal(err)
		}
		for i, m := range []cl.Ref{s.a, s.b, s.out} {
			if err := s.c.SetKernelArgBuffer(s.kern, uint32(i), m); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.c.SetKernelArgScalar(s.kern, 3, cl.ArgU32(uint32(1+op%n))); err != nil {
			t.Fatal(err)
		}
		if err := s.c.EnqueueNDRange(s.q, s.kern, []uint64{n}, []uint64{64}); err != nil {
			t.Fatal(err)
		}
		if err := s.c.EnqueueRead(s.q, s.out, true, 0, input); err != nil {
			t.Fatal(err)
		}
		gs := g.Stats()
		bound := setup + slots + (lib.Stats().Calls - gs.LastWatermark)
		if gs.LogEntries > bound {
			t.Fatalf("op %d: shadow log holds %d entries, over setup %d + %d slots + %d calls past w=%d",
				op, gs.LogEntries, setup, slots, lib.Stats().Calls-gs.LastWatermark, gs.LastWatermark)
		}
		peak = max(peak, gs.LogEntries)
	}
	gs := g.Stats()
	if gs.Checkpoints < 50 || gs.Superseded < 4*(ops/2) {
		t.Fatalf("stats %+v: want checkpoints every 1024 calls, each dropping the args the one before set", gs)
	}
	t.Logf("peak %d entries over %d ops; %d checkpoints superseded %d", peak, ops, gs.Checkpoints, gs.Superseded)
}

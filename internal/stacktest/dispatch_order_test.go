package stacktest

import (
	"ava/internal/leaktest"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/guest"
	"ava/internal/server"
	"ava/internal/transport"
)

// orderLane is one independent stream of the dependency-order test: its own
// queue, kernel and buffers, hence its own pair of ordering domains (the
// kernel for clSetKernelArg, the queue for the enqueues).
type orderLane struct {
	q, k, x, y cl.Ref
}

const orderN = 64 // floats per buffer

func newOrderLanes(t *testing.T, c cl.Client, lanes int) []orderLane {
	t.Helper()
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
	prog, err := c.CreateProgram(ctx, "saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		t.Fatal(err)
	}
	out := make([]orderLane, lanes)
	for i := range out {
		l := &out[i]
		if l.q, err = c.CreateQueue(ctx, ds[0], 0); err != nil {
			t.Fatal(err)
		}
		if l.k, err = c.CreateKernel(prog, "saxpy"); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*cl.Ref{&l.x, &l.y} {
			if *m, err = c.CreateBuffer(ctx, 1, 4*orderN); err != nil {
				t.Fatal(err)
			}
		}
		host := make([]byte, 4*orderN)
		for j := 0; j < orderN; j++ {
			binary.LittleEndian.PutUint32(host[4*j:], math.Float32bits(float32(i+1)+float32(j)/8))
		}
		if err := c.EnqueueWrite(l.q, l.x, true, 0, host); err != nil {
			t.Fatal(err)
		}
		if err := c.EnqueueWrite(l.q, l.y, true, 0, host); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// orderStep is one iteration on one lane: four clSetKernelArg calls that
// change what the launch computes, the launch, every eighth iteration a
// copy of y's first half onto its second (one handle twice in one call),
// and a blocking read of y. y accumulates, so a launch that overtook one of
// its argument updates — or a read that overtook the launch — changes every
// later result too.
func orderStep(c cl.Client, l orderLane, iter int, dst []byte) error {
	alpha := float32(iter%7) / 4
	n := uint32(orderN - iter%5)
	if err := c.SetKernelArgScalar(l.k, 0, cl.ArgF32(alpha)); err != nil {
		return err
	}
	if err := c.SetKernelArgBuffer(l.k, 1, l.x); err != nil {
		return err
	}
	if err := c.SetKernelArgBuffer(l.k, 2, l.y); err != nil {
		return err
	}
	if err := c.SetKernelArgScalar(l.k, 3, cl.ArgU32(n)); err != nil {
		return err
	}
	if err := c.EnqueueNDRange(l.q, l.k, []uint64{uint64(n)}, []uint64{1}); err != nil {
		return err
	}
	if iter%8 == 7 {
		if err := c.EnqueueCopy(l.q, l.y, l.y, 0, 2*orderN, 2*orderN); err != nil {
			return err
		}
	}
	return c.EnqueueRead(l.q, l.y, true, 0, dst)
}

// TestDispatchOrderMatchesNative drives the server's ordering scheme — the
// per-worker completion counters that replaced per-call channels — with the
// dependency chain the paper's async optimization creates: argument updates
// in the kernel's domain, the launch and the read in the queue's, across
// three lanes (six domains, six workers) interleaved in one guest thread.
// A thousand iterations must be byte-identical to the native silo.
func TestDispatchOrderMatchesNative(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const lanes, iters = 3, 1000
	desc := cava.MustCompile(cl.Spec)
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, cl.NewSilo(cl.Config{}))
	srv := server.New(reg)
	guestEP, serverEP := transport.NewInProc()
	served := make(chan error, 1)
	go func() { served <- srv.ServeVM(srv.Context(1, "vm1"), serverEP) }()
	lib := guest.New(desc, guestEP)

	remote, native := cl.Client(cl.NewRemote(lib)), cl.Client(cl.NewNative(cl.NewSilo(cl.Config{})))
	rl, nl := newOrderLanes(t, remote, lanes), newOrderLanes(t, native, lanes)
	got, want := make([]byte, 4*orderN), make([]byte, 4*orderN)
	for it := 0; it < iters; it++ {
		for i := 0; i < lanes; i++ {
			if err := orderStep(native, nl[i], it, want); err != nil {
				t.Fatalf("native iter %d lane %d: %v", it, i, err)
			}
			if err := orderStep(remote, rl[i], it, got); err != nil {
				t.Fatalf("remote iter %d lane %d: %v", it, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d lane %d: remoted result differs from native", it, i)
			}
		}
	}
	if err := remote.DeferredError(); err != nil {
		t.Fatalf("deferred error: %v", err)
	}
	lib.Close()
	if err := <-served; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if st := srv.Context(1, "vm1").Stats(); st.Errors != 0 {
		t.Fatalf("server stats: %+v", st)
	}
}

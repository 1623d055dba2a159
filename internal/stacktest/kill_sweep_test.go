// Kill sweep: sever the guardian's south link at every frame it sends
// during a short OpenCL workload, and the replacement link too, asserting
// after each that the run was indistinguishable from an undisturbed one.
package stacktest_test

import (
	"ava/internal/leaktest"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// sweepWorkload is short, fixed, and sensitive to everything a recovery can
// get wrong. The kernel launches ping-pong between two buffers (a doubles
// into out, out doubles into a, twice over), so a launch that ran zero
// times or twice, or ran against state older or newer than the checkpoint,
// changes the bytes read at the end. Between launches a scratch buffer is
// released and created again, and a short-lived buffer lives and dies in
// between — at three different offsets against the checkpoint cadence, so
// for some k the window a kill replays holds a create whose object is
// already gone. These buffers are only ever touched by blocking calls,
// which is the one use a destroyed object's resubmitted calls survive
// (their failures are duplicates the guest discards).
// Everything is released at the end, so the server's handle table must come
// back to what enumeration alone leaves.
func sweepWorkload(c cl.Client) ([]byte, error) {
	const n = 256
	ps, err := c.PlatformIDs()
	if err != nil {
		return nil, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		return nil, err
	}
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		return nil, err
	}
	var a, out, scratch cl.Ref
	for _, m := range []*cl.Ref{&a, &out, &scratch} {
		if *m, err = c.CreateBuffer(ctx, 1, 4*n); err != nil {
			return nil, err
		}
	}
	prog, err := c.CreateProgram(ctx, "vector_add")
	if err != nil {
		return nil, err
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		return nil, err
	}
	kern, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		return nil, err
	}
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[4*i:], math.Float32bits(float32(i+1)))
	}
	if err := c.EnqueueWrite(q, a, false, 0, host); err != nil {
		return nil, err
	}
	if err := c.EnqueueWrite(q, scratch, true, 0, host); err != nil {
		return nil, err
	}
	var result []byte
	readBack := func(m cl.Ref) error {
		dst := make([]byte, 4*n)
		if err := c.EnqueueRead(q, m, true, 0, dst); err != nil {
			return err
		}
		result = append(result, dst...)
		return nil
	}
	// churn releases the scratch buffer, takes a short-lived one through its
	// whole life, and creates the scratch buffer again.
	churn := func(off uint64) error {
		if err := readBack(scratch); err != nil {
			return err
		}
		if err := c.ReleaseBuffer(scratch); err != nil {
			return err
		}
		for _, short := range []bool{true, false} {
			if scratch, err = c.CreateBuffer(ctx, 1, 4*n); err != nil {
				return err
			}
			if err := c.EnqueueWrite(q, scratch, true, off, host[off:]); err != nil {
				return err
			}
			if !short {
				break
			}
			if err := readBack(scratch); err != nil {
				return err
			}
			if err := c.ReleaseBuffer(scratch); err != nil {
				return err
			}
		}
		return nil
	}
	src, dst := a, out
	for i := 0; i < 4; i++ {
		for idx, m := range []cl.Ref{src, src, dst} {
			if err := c.SetKernelArgBuffer(kern, uint32(idx), m); err != nil {
				return nil, err
			}
		}
		if err := c.SetKernelArgScalar(kern, 3, cl.ArgU32(n)); err != nil {
			return nil, err
		}
		if err := c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{64}); err != nil {
			return nil, err
		}
		src, dst = dst, src
		if i < 3 {
			if err := churn(uint64(4 * (i + 1))); err != nil {
				return nil, err
			}
		}
	}
	if err := readBack(src); err != nil {
		return nil, err
	}
	if err := readBack(scratch); err != nil {
		return nil, err
	}
	if err := c.DeferredError(); err != nil {
		return nil, err
	}
	for _, release := range []error{
		c.ReleaseKernel(kern), c.ReleaseProgram(prog),
		c.ReleaseBuffer(a), c.ReleaseBuffer(out), c.ReleaseBuffer(scratch),
		c.ReleaseQueue(q), c.ReleaseContext(ctx),
	} {
		if release != nil {
			return nil, release
		}
	}
	return result, c.DeferredError()
}

// tappedLink counts the frames sent on one south link and notes whether a
// scripted sever cut it.
type tappedLink struct {
	transport.Endpoint
	sends   atomic.Int64
	severed atomic.Bool
}

func (l *tappedLink) Send(frame []byte) error {
	err := l.Endpoint.Send(frame)
	if errors.Is(err, transport.ErrSevered) {
		l.severed.Store(true)
	} else {
		l.sends.Add(1)
	}
	return err
}

func (l *tappedLink) Sever() error     { return transport.Sever(l.Endpoint) }
func (l *tappedLink) SendCopies() bool { return transport.SendCopies(l.Endpoint) }
func (l *tappedLink) RecvOwned() bool  { return transport.RecvOwned(l.Endpoint) }

// sweepStack is one deployment the sweep runs over. build assembles a fresh
// stack with fc and returns the server.Server its VMs end up on.
type sweepStack struct {
	name  string
	build func(t *testing.T, fc ava.FailoverConfig) (*ava.Stack, *server.Server)
}

// The stack's own server behind each in-process transport, and a
// host.Server on loopback reached by address. On every one replay, rebind,
// restore and capture are control calls on the south link — sends like any
// other, which the sweep severs too.
var sweepStacks = []sweepStack{
	{name: "inproc", build: func(t *testing.T, fc ava.FailoverConfig) (*ava.Stack, *server.Server) {
		return localSweepStack(fc, ava.WithTransport(ava.TransportInProc))
	}},
	{name: "ring", build: func(t *testing.T, fc ava.FailoverConfig) (*ava.Stack, *server.Server) {
		return localSweepStack(fc, ava.WithRingTransport(0))
	}},
	{name: "remote", build: func(t *testing.T, fc ava.FailoverConfig) (*ava.Stack, *server.Server) {
		h, srv := newChaosMachine(t, nil, "")
		return ava.NewStack(cl.Descriptor(), nil, ava.WithRemoteServer(h.Addr()), ava.WithFailover(fc)), srv
	}},
}

func localSweepStack(fc ava.FailoverConfig, transportOpt ava.Option) (*ava.Stack, *server.Server) {
	silo := foSilo()
	stack := foStack(silo, transportOpt, ava.WithFailover(fc))
	return stack, stack.Server
}

// sweepRun runs the workload on a fresh stack whose i-th dialed south link
// is severed after severAfter[i] sends (0, or past the end: never).
type sweepRun struct {
	out     []byte
	mu      sync.Mutex // links grows on whichever guardian goroutine dials
	links   []*tappedLink
	handles []marshal.Handle // the final server context's table
}

// kills counts the links a scripted sever cut.
func (r *sweepRun) kills() (n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		if l.severed.Load() {
			n++
		}
	}
	return n
}

func runSwept(t *testing.T, on sweepStack, severAfter ...int) *sweepRun {
	t.Helper()
	run := new(sweepRun)
	cfg := ava.FailoverConfig{
		Checkpoint: ava.CheckpointConfig{Every: 8},
		Backoff:    failover.BackoffConfig{Seed: 42},
	}
	cfg.WrapServerLink = func(ep transport.Endpoint) transport.Endpoint {
		run.mu.Lock()
		defer run.mu.Unlock()
		if i := len(run.links); i < len(severAfter) && severAfter[i] > 0 {
			ep = transport.NewFlaky(ep, transport.FlakyConfig{SeverAfterSends: severAfter[i]})
		}
		link := &tappedLink{Endpoint: ep}
		run.links = append(run.links, link)
		return link
	}
	stack, srv := on.build(t, cfg)
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "sweep-vm"})
	if err != nil {
		t.Fatal(err)
	}
	if run.out, err = sweepWorkload(cl.NewRemote(lib)); err != nil {
		t.Fatalf("workload: %v", err)
	}
	g := stack.Guardian(1)
	// The workload's last frame may be followed by one nobody waits on (a
	// checkpoint's marker), and a sever may be waiting for exactly that
	// send. A checkpoint that succeeds is the barrier: the uplink is idle,
	// the link steady, and its own marker made the round trip.
	for deadline := time.Now().Add(5 * time.Second); g.CheckpointNow() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("guardian never settled: stats %+v, dead: %v", g.Stats(), g.DeadErr())
		}
	}
	kills := run.kills()
	if dialed := uint64(len(run.links)); dialed != kills+1 {
		t.Errorf("%d links dialed for %d severed", dialed, kills)
	}
	// Replay is itself traffic on the replacement link, and a sever that
	// lands inside it is retried by the recovery in progress (dial, replay,
	// sever and retry): it costs a link, not a second recovery.
	if got := g.Stats().Recoveries; got < min(kills, 1) || got > kills {
		t.Errorf("Recoveries = %d, links severed = %d", got, kills)
	}
	if err := g.DeadErr(); err != nil {
		t.Errorf("guardian gave up: %v", err)
	}
	if ls := lib.Stats(); ls.RetryableFailed != 0 || ls.RetainDropped != 0 {
		t.Errorf("guest: %d calls failed retryable, %d retained frames dropped", ls.RetryableFailed, ls.RetainDropped)
	}
	run.handles = srv.Lookup(1).Handles.Handles()
	return run
}

// TestKillSweep severs the south link after every k of the N frames the
// workload sends on it, and for every fourth k severs the replacement link
// as well, after k2 of the frames recovery sends on it — replay first, then
// resubmission — a kill during recovery. Every row must be
// indistinguishable from the undisturbed run: no call fails, the bytes read
// back equal a native run's, the guardian recovered at least once and at
// most as often as it was killed, and the last server context's handle
// table is the undisturbed one's — an object a recovery re-created and
// nothing destroyed would sit there.
func TestKillSweep(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	want, err := sweepWorkload(cl.NewNative(foSilo()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sweepStacks {
		t.Run(tr.name, func(t *testing.T) {
			base := runSwept(t, tr)
			if !bytes.Equal(base.out, want) {
				t.Fatal("undisturbed run differs from native")
			}
			n := int(base.links[0].sends.Load())
			if len(base.links) != 1 || n < 20 {
				t.Fatalf("undisturbed run dialed %d links and sent %d frames south", len(base.links), n)
			}
			row := func(k, k2 int) {
				name := fmt.Sprintf("k=%d/k2=%d", k, k2)
				t.Run(name, func(t *testing.T) {
					run := runSwept(t, tr, k, k2)
					if !bytes.Equal(run.out, want) {
						t.Error("output differs from the native run")
					}
					if !reflect.DeepEqual(run.handles, base.handles) {
						t.Errorf("final handle table %v, undisturbed %v", run.handles, base.handles)
					}
					if t.Failed() {
						t.Logf("repro: go test -race -run '^TestKillSweep$/^%s$/^k=%d$/^k2=%d$' ./internal/stacktest/", tr.name, k, k2)
					}
				})
			}
			for k := 1; k <= n; k++ {
				row(k, 0)
				if k%4 == 0 {
					for k2 := 1; k2 <= 3; k2++ {
						row(k, k2)
					}
				}
			}
		})
	}
}

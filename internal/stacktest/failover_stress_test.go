// Failover chaos tests: SIGKILL-equivalent API-server death mid-workload
// over every transport, asserting byte-identical results after recovery;
// reconnect racing concurrent in-flight calls under -race; and liveness
// detection of a link that goes deaf without an error signal.
package stacktest_test

import (
	"ava/internal/leaktest"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/failover"
	"ava/internal/host"
	"ava/internal/rodinia"
	"ava/internal/server"
	"ava/internal/transport"
)

func foSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:           "chaos-gpu",
			MemoryBytes:    2 << 30,
			ComputeUnits:   8,
			KernelOverhead: 2 * time.Microsecond,
			DMALatency:     2 * time.Microsecond,
			DMABandwidth:   12e9,
		}},
	})
}

func foStack(silo *cl.Silo, opts ...ava.Option) *ava.Stack {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	return ava.NewStack(desc, reg, opts...)
}

func foConfig() ava.FailoverConfig {
	return ava.FailoverConfig{
		Checkpoint: ava.CheckpointConfig{Every: 64},
		Backoff:    failover.BackoffConfig{Seed: 42},
	}
}

// waitRecovered polls until the guardian reports at least n recoveries.
func waitRecovered(t *testing.T, g *failover.Guardian, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().Recoveries >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("guardian never recovered: stats %+v", g.Stats())
}

// TestFailoverKillMidRodinia kills the API server in the middle of a
// Rodinia workload on each in-memory transport and requires the workload
// to complete with a checksum byte-identical to an undisturbed run — the
// E12 acceptance property.
func TestFailoverKillMidRodinia(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		t.Fatal("gaussian workload missing")
	}

	// Undisturbed baseline, also timing the run so the kill can land
	// mid-workload rather than after it.
	base := foStack(foSilo())
	c, err := clRemoteClient(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	want, err := w.Run(c, 1)
	baseDur := time.Since(start)
	base.Close()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	for _, tr := range []struct {
		name string
		kind ava.TransportKind
	}{
		{"inproc", ava.TransportInProc},
		{"ring", ava.TransportRing},
	} {
		t.Run(tr.name, func(t *testing.T) {
			silo := foSilo()
			stack := foStack(silo, ava.WithTransport(tr.kind), ava.WithFailover(foConfig()))
			defer stack.Close()
			lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "chaos-vm"})
			if err != nil {
				t.Fatal(err)
			}
			c := cl.NewRemote(lib)

			delay := baseDur / 3
			if delay < time.Millisecond {
				delay = time.Millisecond
			}
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				time.Sleep(delay)
				stack.KillServer(1)
			}()

			got, err := w.Run(c, 1)
			if err != nil {
				t.Fatalf("run with mid-workload kill: %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("post-recovery checksum diverged: got %v want %v", got, want)
			}
			<-killed
			waitRecovered(t, stack.Guardian(1), 1)

			// Post-recovery correctness: the stack keeps serving and stays
			// deterministic on the replacement server incarnation.
			got, err = w.Run(c, 1)
			if err != nil {
				t.Fatalf("post-recovery run: %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("second-run checksum diverged: got %v want %v", got, want)
			}

			gs := stack.Guardian(1).Stats()
			if gs.Recoveries < 1 {
				t.Fatalf("expected >=1 recovery, got %d", gs.Recoveries)
			}
			ls := lib.Stats()
			if ls.RetryableFailed != 0 {
				t.Fatalf("silent call drops surfaced as retryable failures: %d", ls.RetryableFailed)
			}
			if ls.RetainDropped != 0 {
				t.Fatalf("retention window evicted %d unacked frames", ls.RetainDropped)
			}
		})
	}
}

// remoteStack starts a standalone API-server machine on loopback and a
// guest-side stack whose server is that machine — the disaggregated
// deployment. The machine is killed when the test
// ends; the caller closes the stack.
func remoteStack(t *testing.T, fc ava.FailoverConfig) (*ava.Stack, *host.Server) {
	t.Helper()
	h := newChaosHost(t, nil, "")
	return ava.NewStack(cl.Descriptor(), nil, ava.WithRemoteServer(h.Addr()), ava.WithFailover(fc)), h
}

// TestFailoverKillMidWorkloadTCP runs the disaggregated deployment (the
// API server is a host.Server behind a TCP listener, one server
// incarnation per accepted connection) and kills the live TCP link
// mid-workload: the guardian must redial, replay over the wire, and the
// workload must finish byte-identical.
func TestFailoverKillMidWorkloadTCP(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("nw")
	if !ok {
		t.Fatal("nw workload missing")
	}
	want, err := w.Run(cl.NewNative(foSilo()), 1)
	if err != nil {
		t.Fatal(err)
	}

	stack, _ := remoteStack(t, ava.FailoverConfig{
		Checkpoint: ava.CheckpointConfig{Every: 64},
		Backoff:    failover.BackoffConfig{Seed: 7},
	})
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "tcp-vm"})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(3 * time.Millisecond)
		stack.KillServer(1)
	}()
	got, err := w.Run(cl.NewRemote(lib), 1)
	if err != nil {
		t.Fatalf("run with mid-workload TCP kill: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("post-recovery checksum diverged: got %v want %v", got, want)
	}
	waitRecovered(t, stack.Guardian(1), 1)
	if n := lib.Stats().RetryableFailed; n != 0 {
		t.Fatalf("silent call drops surfaced as retryable failures: %d", n)
	}
}

// TestFailoverReconnectRaceStress hammers one VM with concurrent
// write/readback sessions while the server is killed repeatedly. Run
// under -race it checks reconnect synchronization; functionally it checks
// that every readback observes the bytes last written despite recoveries.
func TestFailoverReconnectRaceStress(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	silo := foSilo()
	cfg := foConfig()
	cfg.Checkpoint.Every = 32
	stack := foStack(silo, ava.WithFailover(cfg))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "race-vm"})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const iters = 40
	const bufSize = 1024
	var wg sync.WaitGroup
	var failures atomic.Int32
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c := cl.NewRemote(lib)
			fail := func(err error) {
				failures.Add(1)
				select {
				case errCh <- err:
				default:
				}
			}
			ps, err := c.PlatformIDs()
			if err != nil {
				fail(fmt.Errorf("worker %d platforms: %w", wk, err))
				return
			}
			ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
			if err != nil {
				fail(fmt.Errorf("worker %d devices: %w", wk, err))
				return
			}
			ctx, err := c.CreateContext(ds)
			if err != nil {
				fail(fmt.Errorf("worker %d context: %w", wk, err))
				return
			}
			q, err := c.CreateQueue(ctx, ds[0], 0)
			if err != nil {
				fail(fmt.Errorf("worker %d queue: %w", wk, err))
				return
			}
			buf, err := c.CreateBuffer(ctx, 1, bufSize)
			if err != nil {
				fail(fmt.Errorf("worker %d buffer: %w", wk, err))
				return
			}
			pat := make([]byte, bufSize)
			got := make([]byte, bufSize)
			for it := 0; it < iters; it++ {
				// Recycle the buffer periodically to drive the tracked
				// create/destroy paths through recovery.
				if it%16 == 15 {
					if err := c.ReleaseBuffer(buf); err != nil {
						fail(fmt.Errorf("worker %d iter %d release: %w", wk, it, err))
						return
					}
					if buf, err = c.CreateBuffer(ctx, 1, bufSize); err != nil {
						fail(fmt.Errorf("worker %d iter %d recreate: %w", wk, it, err))
						return
					}
				}
				for j := range pat {
					pat[j] = byte(wk*31 + it + j)
				}
				if err := c.EnqueueWrite(q, buf, true, 0, pat); err != nil {
					fail(fmt.Errorf("worker %d iter %d write: %w", wk, it, err))
					return
				}
				if err := c.EnqueueRead(q, buf, true, 0, got); err != nil {
					fail(fmt.Errorf("worker %d iter %d read: %w", wk, it, err))
					return
				}
				for j := range got {
					if got[j] != pat[j] {
						fail(fmt.Errorf("worker %d iter %d: byte %d = %#x want %#x", wk, it, j, got[j], pat[j]))
						return
					}
				}
			}
		}(wk)
	}

	// Three SIGKILL-equivalents spaced so recoveries overlap live traffic.
	for k := 0; k < 3; k++ {
		time.Sleep(15 * time.Millisecond)
		if err := stack.KillServer(1); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d worker failures; first: %v", n, <-errCh)
	}
	waitRecovered(t, stack.Guardian(1), 1)
	ls := lib.Stats()
	if ls.RetryableFailed != 0 {
		t.Fatalf("retryable failures leaked to callers: %d", ls.RetryableFailed)
	}
	// A final call on the post-chaos stack must still work.
	if _, err := cl.NewRemote(lib).PlatformIDs(); err != nil {
		t.Fatalf("post-chaos call: %v", err)
	}
}

// TestFailoverFlakyLivenessDetection injects a link that goes deaf (drops
// every frame after the first few sends, no error signal) and checks that
// heartbeat probing detects the loss and recovery completes the stalled
// in-flight call — the failure mode transport errors alone cannot catch.
func TestFailoverFlakyLivenessDetection(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	silo := foSilo()
	var dials atomic.Int32
	stack := foStack(silo, ava.WithFailover(ava.FailoverConfig{
		Liveness: ava.LivenessConfig{
			HeartbeatEvery: 3 * time.Millisecond,
			// Keep the marker wait short so detection is fast.
			Timeout: 40 * time.Millisecond,
		},
		Backoff: failover.BackoffConfig{Seed: 9},
		WrapServerLink: func(ep transport.Endpoint) transport.Endpoint {
			if dials.Add(1) == 1 {
				return transport.NewFlaky(ep, transport.FlakyConfig{Seed: 1, DropAfterSends: 4})
			}
			return ep
		},
	}))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "deaf-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)

	// The first few calls pass; then the link silently eats frames and a
	// call stalls until the heartbeat notices and recovery resubmits it.
	for i := 0; i < 10; i++ {
		if _, err := c.PlatformIDs(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	waitRecovered(t, stack.Guardian(1), 1)
	if n := lib.Stats().Reconnects; n < 1 {
		t.Fatalf("guest absorbed no reconnect (stats %+v)", lib.Stats())
	}
	if dials.Load() < 2 {
		t.Fatalf("expected a redial, got %d dials", dials.Load())
	}
}

// TestFailoverRetryableSurface verifies the documented unsafe-call
// surface: when the guardian is dead (the serving machine is gone, every
// redial is refused and the backoff budget is exhausted), stalled calls
// fail with ava.ErrRetryable rather than hanging.
func TestFailoverRetryableSurface(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack, h := remoteStack(t, ava.FailoverConfig{
		// A tiny budget so the redial loop exhausts quickly.
		Backoff: failover.BackoffConfig{Base: time.Millisecond, Cap: 2 * time.Millisecond, Budget: 5 * time.Millisecond, Seed: 3},
	})
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "doomed-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	if _, err := c.PlatformIDs(); err != nil {
		t.Fatalf("healthy first call: %v", err)
	}
	// The only machine dies: its connection is severed and nothing
	// listens at the address any more.
	h.Kill()
	// Subsequent calls block at most until the guardian declares the
	// server dead, then surface ErrRetryable; they must not hang and must
	// not return a silent wrong answer.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = c.PlatformIDs(); lastErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("guardian never died and calls kept succeeding")
	}
	if !errors.Is(lastErr, ava.ErrRetryable) {
		t.Fatalf("expected ErrRetryable, got %v", lastErr)
	}
	if stack.Guardian(1).DeadErr() == nil {
		t.Fatal("guardian should report a terminal error")
	}
	if lib.Stats().RetryableFailed < 1 {
		t.Fatalf("RetryableFailed not counted: %+v", lib.Stats())
	}
}

// clRemoteClient attaches a VM and wraps it in the typed binding.
func clRemoteClient(stack *ava.Stack, id uint32) (*cl.RemoteClient, error) {
	lib, err := stack.AttachVM(ava.VMConfig{ID: id, Name: "vm"})
	if err != nil {
		return nil, err
	}
	return cl.NewRemote(lib), nil
}

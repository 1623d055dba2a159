// Adaptive checkpoint cadence at stack level: a hot workload (sync calls
// continuously in flight) must not pay the fixed cadence's quiesce stalls.
package stacktest_test

import (
	"ava/internal/leaktest"
	"sync"
	"testing"

	"ava"
	"ava/internal/cl"
)

// TestAdaptiveCadenceNoHotStall keeps the guardian's busy signal lit —
// four threads issuing blocking writes on independent command queues —
// and requires the adaptive policy to defer most of the checkpoints the
// fixed cadence would have cut mid-burst. Checkpoint count is the
// deterministic proxy for quiesce stall: every checkpoint is a full sync
// drain plus a marker round-trip, so fewer checkpoints under load means
// less stall injected into the hot path. The deferral bounds must still
// force some checkpoints (the resubmission window stays bounded), and
// the workload must complete cleanly either way.
func TestAdaptiveCadenceNoHotStall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const (
		threads       = 4
		writesPerQ    = 100
		checkpointEvr = 8
	)

	run := func(adaptive bool) uint64 {
		silo := foSilo()
		cfg := foConfig()
		cfg.Checkpoint = ava.CheckpointConfig{Every: checkpointEvr, Adaptive: adaptive}
		stack := foStack(silo, ava.WithFailover(cfg))
		defer stack.Close()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "hot-vm"})
		if err != nil {
			t.Fatal(err)
		}
		c := cl.NewRemote(lib)
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

		payload := make([]byte, 4096)
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		for i := 0; i < threads; i++ {
			q, err := c.CreateQueue(ctx, ds[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := c.CreateBuffer(ctx, 0, uint64(len(payload)))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < writesPerQ; n++ {
					if err := c.EnqueueWrite(q, buf, true, 0, payload); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if rf := lib.Stats().RetryableFailed; rf != 0 {
			t.Fatalf("adaptive=%v: %d calls dropped", adaptive, rf)
		}
		gs := stack.Guardian(1).Stats()
		if gs.Recoveries != 0 {
			t.Fatalf("adaptive=%v: unexpected recovery: %+v", adaptive, gs)
		}
		return gs.Checkpoints
	}

	fixed := run(false)
	adapt := run(true)
	t.Logf("checkpoints under load: fixed=%d adaptive=%d", fixed, adapt)
	if adapt == 0 {
		t.Fatal("adaptive cadence never checkpointed: deferral bounds not enforced")
	}
	if adapt*2 > fixed {
		t.Fatalf("adaptive cadence did not shed mid-burst checkpoints: fixed=%d adaptive=%d", fixed, adapt)
	}
}

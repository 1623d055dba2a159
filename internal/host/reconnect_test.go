package host_test

import (
	"math"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/rodinia"
)

// TestHostReconnectReplaysIntoCleanContext severs only the VM's connection
// in the middle of Rodinia gaussian while the host stays alive, so the
// fleet dialer's per-host attempts reconnect to the *same* host. The
// guardian's wire replay must land in an empty handle table: a host that
// reused the previous incarnation's context answered FuncRebind with
// "handle already bound" and the recovery was abandoned. Fixed backoff
// seed, so the recovery schedule is reproducible run to run.
func TestHostReconnectReplaysIntoCleanContext(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		t.Fatal("gaussian workload missing")
	}

	run := func(severAfter time.Duration) (float64, time.Duration) {
		loc := fleet.NewRegistry(0, nil)
		h := startHost(t, clServer(), host.Config{API: "opencl", Locator: loc, ID: "only-host"})
		defer h.Kill()
		stack := ava.NewStack(cl.Descriptor(), nil,
			ava.WithTransport(ava.TransportRing),
			ava.WithFailover(ava.FailoverConfig{
				Checkpoint: ava.CheckpointConfig{Every: 64},
				Backoff:    failover.BackoffConfig{Seed: 14},
			}),
			ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "opencl"}))
		defer stack.Close()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "reconnect-vm"})
		if err != nil {
			t.Fatal(err)
		}
		if severAfter > 0 {
			go func() {
				time.Sleep(severAfter)
				stack.KillServer(1)
			}()
		}
		start := time.Now()
		sum, err := w.Run(cl.NewRemote(lib), 1)
		dur := time.Since(start)
		if err != nil {
			t.Fatalf("workload (sever after %v): %v", severAfter, err)
		}
		if rf := lib.Stats().RetryableFailed; rf != 0 {
			t.Fatalf("%d calls dropped", rf)
		}
		if severAfter > 0 {
			if n := stack.Guardian(1).Stats().Recoveries; n < 1 {
				t.Fatalf("the sever caused no recovery (run took %v)", dur)
			}
		}
		if ds := stack.SchedDecisions(); len(ds) != 1 || stack.VMHost(1) != "only-host" {
			t.Fatalf("a single live host, yet the VM moved: on %q after %+v", stack.VMHost(1), ds)
		}
		return sum, dur
	}

	want, baseDur := run(0)
	delay := baseDur / 3
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	got, _ := run(delay)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("checksum after same-host reconnect: %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
}

package main

import (
	"errors"
	"io"
	"testing"
	"time"

	"ava"
)

// stuckRunner never returns from op number at until release is closed: what
// a client looks like whose reply the stack has lost.
type stuckRunner struct {
	at       int
	release  chan struct{}
	returned chan struct{}
}

func (r *stuckRunner) op(i int) error {
	if i == r.at {
		<-r.release
		close(r.returned)
	}
	return nil
}

type okRunner struct{}

func (okRunner) op(int) error { return nil }

func shortWatchdog(t *testing.T) {
	old := opTimeout
	opTimeout = 50 * time.Millisecond
	t.Cleanup(func() { opTimeout = old })
}

// TestWatchdogCountsLostReply: a client that stops getting replies must not
// hang runOps; its ops count as failed, once, and the other client's as done.
func TestWatchdogCountsLostReply(t *testing.T) {
	shortWatchdog(t)
	stuck := &stuckRunner{at: 2, release: make(chan struct{}), returned: make(chan struct{})}
	var tl tally
	_, err := runOps([]runner{stuck, okRunner{}}, 0, 5, &tl, nil)
	if !errors.Is(err, errStalled) {
		t.Fatalf("runOps returned %v, want errStalled", err)
	}
	if tl.attempted != 10 || tl.failed != 5 || !errors.Is(tl.firstErr, errStalled) {
		t.Fatalf("tally after the stall: %d attempted, %d failed, first error %v; want 10, 5, errStalled", tl.attempted, tl.failed, tl.firstErr)
	}
	// The abandoned client may come back later; it was already accounted for.
	close(stuck.release)
	<-stuck.returned
	time.Sleep(10 * time.Millisecond)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.attempted != 10 || tl.failed != 5 {
		t.Fatalf("the abandoned client was counted twice: %d attempted, %d failed", tl.attempted, tl.failed)
	}
}

// TestStalledRunIsAFailedResult: a run the watchdog abandons still yields a
// result, with failures in it, so the command prints it and exits non-zero.
func TestStalledRunIsAFailedResult(t *testing.T) {
	shortWatchdog(t)
	release := make(chan struct{})
	defer close(release)
	w := &workload{
		name: "stuck", blocks: 1, ops: 4, nativeMult: 1, warmupOps: 1,
		wire: func([]*ava.Descriptor) (*wiring, error) {
			return &wiring{ava: []client{{}}, native: []client{{}}, close: func() {}}, nil
		},
		newRunner: func(c client, _ int64, _ runConfig) (runner, error) {
			// Both twins get a runner that stalls in the first measured
			// block; the native one runs first.
			return &stuckRunner{at: 2, release: release, returned: make(chan struct{})}, nil
		},
	}
	res, err := runTimed(w, runConfig{seed: 1, starts: 1, corruptOp: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || !errors.Is(res.firstErr, errStalled) {
		t.Fatalf("%d ops failed, first error %v; want the stalled ops counted", res.failed, res.firstErr)
	}
	res.print(io.Discard)
}

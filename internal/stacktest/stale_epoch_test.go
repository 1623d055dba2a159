package stacktest_test

import (
	"ava/internal/leaktest"
	"bytes"
	"runtime"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
)

// TestFailoverSyncCallsRacingKill kills the server while the guardian's
// uplink is in the middle of a frame, over and over. Each op is a burst of
// asynchronous 64 KiB writes batched in one frame with the blocking read
// behind them — shadow-recording those writes keeps the uplink inside the
// frame for longer than a whole recovery takes — and the kill lands at a
// varying offset from the flush. A call the uplink picked up before the
// recovery and admitted after it used to be recorded as in flight on the
// *new* link, where no server would ever answer it: the next checkpoint
// quiesce or resubmission drain then waited on it forever. Every op runs
// under a watchdog; a hang fails the test with all stacks.
func TestFailoverSyncCallsRacingKill(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const size = 64 << 10
	silo := foSilo()
	stack := foStack(silo, ava.WithFailover(foConfig()))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "racing-kill-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	ctx, q, _ := clSetup(t, c)
	buf, err := c.CreateBuffer(ctx, 0, size)
	if err != nil {
		t.Fatal(err)
	}

	const kills = 20
	const burst = 100 // under the guest's batch limit: one frame per op
	pat, got := make([]byte, size), make([]byte, size)
	done := make(chan error, 1)
	for k := 0; k < kills; k++ {
		for i := range pat {
			pat[i] = byte(k + i)
		}
		flushing := make(chan struct{})
		go func() {
			<-flushing
			// 0.6–1.8 ms after the flush: about one recovery into the frame.
			time.Sleep(time.Duration(2+k%5) * 300 * time.Microsecond)
			stack.KillServer(1)
		}()
		go func() {
			for i := 0; i < burst; i++ {
				if err := c.EnqueueWrite(q, buf, false, 0, pat); err != nil {
					done <- err
					return
				}
			}
			close(flushing)
			done <- c.EnqueueRead(q, buf, true, 0, got)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("op behind kill %d: %v", k, err)
			}
		case <-time.After(10 * time.Second):
			stacks := make([]byte, 1<<20)
			t.Fatalf("op behind kill %d hung; guardian stats %+v\n\n%s",
				k, stack.Guardian(1).Stats(), stacks[:runtime.Stack(stacks, true)])
		}
		if !bytes.Equal(got, pat) {
			t.Fatalf("readback behind kill %d differs from the bytes just written", k)
		}
		waitRecovered(t, stack.Guardian(1), uint64(k+1))
	}
	if rf := lib.Stats().RetryableFailed; rf != 0 {
		t.Fatalf("%d calls dropped", rf)
	}
}

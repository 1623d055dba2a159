package failover

import (
	"sync/atomic"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// A checkpoint that has to wait for an in-flight sync call waits on the
// guardian's condition, not on the clock. Under clock.Virtual a sleep-poll
// is a busy spin that advances time on every turn and fires unrelated
// timers (liveness, call deadlines) early — which would make a
// deterministic kill sweep impossible. The test plays the server by hand:
// it withholds the sync call's reply until the checkpoint is waiting, and
// virtual time must not have moved when the checkpoint completes.
func TestCheckpointDrainLeavesVirtualClockAlone(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void f(uint32_t a);`)
	clk := clock.NewVirtual()
	router, north := transport.NewInProc()
	south, srv := transport.NewInProc()
	g := New(desc, north, func() (ServerLink, error) { return ServerLink{EP: south}, nil }, Config{Clock: clk})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		g.Close()
		router.Close()
		srv.Close()
	}()
	var fired atomic.Bool // set from whichever goroutine advances the clock
	clk.AfterFunc(time.Millisecond, func() { fired.Store(true) })

	// One sync call, forwarded south and left unanswered.
	call := marshal.EncodeCall(&marshal.Call{Seq: 1, Func: logFunc(desc, "f"), Args: []marshal.Value{marshal.Uint(1)}})
	if err := router.Send(marshal.EncodeBatch([][]byte{call})); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()

	ckpt := make(chan error, 1)
	go func() { ckpt <- g.CheckpointNow() }()
	// CheckpointNow is in the quiescing state from beginCheckpoint to
	// endCheckpoint.
	for quiesced := false; !quiesced; time.Sleep(50 * time.Microsecond) {
		g.mu.Lock()
		quiesced = g.state == quiescing
		g.mu.Unlock()
	}
	time.Sleep(5 * time.Millisecond) // let a sleep-poll, if there were one, spin

	if err := srv.Send(marshal.EncodeReply(&marshal.Reply{Seq: 1, Status: marshal.StatusOK})); err != nil {
		t.Fatal(err)
	}
	// The drain is over when the quiesce marker arrives.
	answerCheckpoint(t, srv)
	if err := <-ckpt; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if now := clk.Now(); !now.Equal(start) || fired.Load() {
		t.Fatalf("waiting for the drain moved virtual time by %v (unrelated timer fired: %v)", now.Sub(start), fired.Load())
	}
	if got := g.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints = %d, want 1", got)
	}
}

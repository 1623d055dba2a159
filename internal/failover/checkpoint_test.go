package failover

import (
	"strings"
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

// A checkpoint the uplink cuts and the server refuses is counted and its
// reason kept — the uplink has nobody to return the error to. Played by hand:
// CheckpointEvery 1, the first call's checkpoint is answered the way a host
// whose registry forgot its adapter used to answer, the second's properly.
func TestFailedCheckpointIsCounted(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void f(uint32_t a);`)
	router, north := transport.NewInProc()
	south, srv := transport.NewInProc()
	g := New(desc, north, func() (ServerLink, error) { return ServerLink{EP: south}, nil },
		Config{Clock: clock.NewVirtual(), CheckpointEvery: 1})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		g.Close()
		router.Close()
		srv.Close()
	}()
	call := func(seq uint64, snapshot marshal.Reply) {
		t.Helper()
		sendCall(t, router, &marshal.Call{Seq: seq, Func: logFunc(desc, "f"), Args: []marshal.Value{marshal.Uint(1)}})
		recvCall(t, srv)
		if err := srv.Send(marshal.EncodeReply(&marshal.Reply{Seq: seq})); err != nil {
			t.Fatal(err)
		}
		if rep := recvReply(t, router); rep.Seq != seq {
			t.Fatalf("reply north has seq %d, want %d", rep.Seq, seq)
		}
		answerCheckpointWith(t, srv, snapshot)
	}

	call(1, marshal.Reply{Status: marshal.StatusInternal, Err: "snapshot: no adapter"})
	// The uplink is back in serving once endCheckpoint has counted.
	for st := g.Stats(); st.FailedCheckpoints == 0; st = g.Stats() {
		time.Sleep(50 * time.Microsecond)
	}
	st := g.Stats()
	if st.Checkpoints != 0 || st.FailedCheckpoints != 1 || st.LastWatermark != 0 {
		t.Fatalf("after the refused checkpoint: %+v", st)
	}
	if err := g.CheckpointErr(); err == nil || !strings.Contains(err.Error(), "no adapter") {
		t.Fatalf("CheckpointErr = %v, want the server's reason", err)
	}

	call(2, marshal.Reply{Ret: marshal.BytesVal(marshal.EncodeObjectStates(nil))})
	if _, _, w, ok := marshal.DecodeControl(recvReply(t, router)); !ok || w != 2 {
		t.Fatalf("checkpoint notice: watermark %d, ok %v", w, ok)
	}
	if st := g.Stats(); st.Checkpoints != 1 || st.FailedCheckpoints != 1 {
		t.Fatalf("after the good checkpoint: %+v", st)
	}
}

package failover

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// heldLink is a server link that survives Sever and Close — the dying
// server whose last replies are still in the pipe — and counts Recv calls,
// so a test can tell when the downlink has consumed what it injected.
type heldLink struct {
	transport.Endpoint
	recvs atomic.Int64
}

func (h *heldLink) Recv() ([]byte, error) {
	h.recvs.Add(1)
	return h.Endpoint.Recv()
}

func (h *heldLink) Close() error { return nil }

// logShape is everything a shadow log knows, in comparable form.
type logShape struct {
	State   MirrorState
	Pending map[uint64]struct{}
}

func shapeOf(l *shadowLog) logShape {
	s := logShape{Pending: make(map[uint64]struct{})}
	l.state(&s.State)
	for seq := range l.pendingRebind {
		s.Pending[seq] = struct{}{}
	}
	return s
}

// sendCall puts one call on the guest side of the guardian.
func sendCall(t *testing.T, router transport.Endpoint, c *marshal.Call) {
	t.Helper()
	if err := router.Send(marshal.EncodeBatch([][]byte{marshal.EncodeCall(c)})); err != nil {
		t.Fatal(err)
	}
}

// goSendCall is sendCall on a goroutine of its own, for a Send that waits on
// what the test has yet to play — a checkpoint it cuts, a reply it drains.
// Wait for the returned channel before the next Send.
func goSendCall(ep transport.Endpoint, c *marshal.Call) <-chan error {
	sent := make(chan error, 1)
	frame := marshal.EncodeBatch([][]byte{marshal.EncodeCall(c)})
	go func() { sent <- ep.Send(frame) }()
	return sent
}

// recvCall takes the next single-call frame a hand-played server receives.
func recvCall(t *testing.T, srv transport.Endpoint) *marshal.Call {
	t.Helper()
	frame, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	calls, err := marshal.DecodeBatch(frame)
	if err != nil || len(calls) != 1 {
		t.Fatalf("south frame: %d calls, %v", len(calls), err)
	}
	c, err := marshal.DecodeCall(calls[0])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recvReply takes the next frame the guardian sent north.
func recvReply(t *testing.T, router transport.Endpoint) *marshal.Reply {
	t.Helper()
	frame, err := router.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// answerCheckpoint plays a server by hand through one checkpoint: the
// quiesce marker, answered the way a server answers an unknown function,
// then the capture's one FuncSnapshot — no objects.
func answerCheckpoint(t *testing.T, srv transport.Endpoint) {
	t.Helper()
	answerCheckpointWith(t, srv, marshal.Reply{Ret: marshal.BytesVal(marshal.EncodeObjectDeltas(nil))})
}

// answerCheckpointWith is answerCheckpoint with the FuncSnapshot reply given.
func answerCheckpointWith(t *testing.T, srv transport.Endpoint, snapshot marshal.Reply) {
	t.Helper()
	for _, step := range []struct {
		fn  uint32
		rep marshal.Reply
	}{
		{markerFunc, marshal.Reply{Status: marshal.StatusDenied, Err: "unknown function"}},
		{marshal.FuncSnapshot, snapshot},
	} {
		ctrl := recvCall(t, srv)
		if ctrl.Func != step.fn {
			t.Fatalf("expected control call %#x, got %+v", step.fn, ctrl)
		}
		step.rep.Seq = ctrl.Seq
		if err := srv.Send(marshal.EncodeReply(&step.rep)); err != nil {
			t.Fatal(err)
		}
	}
}

// A reply the dying link gets out after recovery has taken its replay set
// must not edit the shadow log, and must not reach the guest: the replay
// set and the rebuild that ends the recovery have to describe the same log,
// and the guest must learn each call's result from the server that will
// hold its effects. The test holds the guardian in recovering (the dial
// blocks) and has the old server answer an unconfirmed create and an
// unconfirmed destroy. With the replies recorded, the create would be kept
// as confirmed though nothing replayed it, and the destroy would prune an
// object replay did recreate and synthesize its resubmission, leaving that
// object on the replacement for good.
func TestLateReplyFromTheDyingLinkIsFenced(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv2, desc := newReplayServer()
	ctx2 := srv2.Context(1, "second-life")
	fn := func(name string) uint32 { return logFunc(desc, name) }

	south1, srv1 := transport.NewInProc()
	south2, serverEP2 := transport.NewInProc()
	old := &heldLink{Endpoint: south1}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv2.ServeVM(ctx2, serverEP2)
	}()
	dialing, release := make(chan struct{}), make(chan struct{})
	dials := 0
	dial := func() (transport.Endpoint, error) {
		if dials++; dials == 1 {
			return old, nil
		}
		close(dialing)
		<-release
		return south2, nil
	}
	g := New(desc, dial, Config{Clock: clock.NewVirtual()})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	router := g.Endpoint()
	defer func() {
		g.Close()
		for _, ep := range []transport.Endpoint{south1, srv1, serverEP2} {
			ep.Close()
		}
		<-served
	}()

	// First life, played by hand: object 7 is created and checkpointed, then
	// a second create and the destroy of 7 go south and stay unanswered.
	sendCall(t, router, &marshal.Call{Seq: 1, Func: fn("create"), Args: []marshal.Value{marshal.Uint(1), marshal.Len(8)}})
	recvCall(t, srv1)
	created7 := marshal.Reply{Seq: 1, Ret: marshal.Int(0), Outs: []marshal.Value{marshal.HandleVal(7)}}
	if err := srv1.Send(marshal.EncodeReply(&created7)); err != nil {
		t.Fatal(err)
	}
	if rep := recvReply(t, router); rep.Seq != 1 {
		t.Fatalf("first reply north has seq %d", rep.Seq)
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- g.CheckpointNow() }()
	answerCheckpoint(t, srv1)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if _, _, w, ok := marshal.DecodeControl(recvReply(t, router)); !ok || w != 1 {
		t.Fatalf("checkpoint notice: watermark %d, ok %v", w, ok)
	}
	sendCall(t, router, &marshal.Call{Seq: 2, Func: fn("create"), Args: []marshal.Value{marshal.Uint(2), marshal.Len(8)}})
	recvCall(t, srv1)
	sendCall(t, router, &marshal.Call{Seq: 3, Func: fn("destroy"), Args: []marshal.Value{marshal.HandleVal(7)}})
	recvCall(t, srv1)

	// The link is declared lost. What the recovery must leave is the
	// rebuild of the log as it stands now.
	g.mu.Lock()
	gen := g.linkGen
	var st MirrorState
	g.log.state(&st)
	st.W = g.ckptW
	g.mu.Unlock()
	want := newShadowLog(desc, nil)
	want.load(&st)
	recovered := make(chan struct{})
	go func() {
		defer close(recovered)
		g.recover(gen, errors.New("test: link declared lost"))
	}()
	<-dialing

	// The old server's last words. Each frame the downlink takes brings it
	// back for another Recv once it is done with it.
	before := old.recvs.Load()
	created9 := marshal.Reply{Seq: 2, Ret: marshal.Int(0), Outs: []marshal.Value{marshal.HandleVal(9)}}
	for _, rep := range []*marshal.Reply{&created9, {Seq: 3, Ret: marshal.Int(0)}} {
		if err := srv1.Send(marshal.EncodeReply(rep)); err != nil {
			t.Fatal(err)
		}
	}
	for old.recvs.Load() < before+2 {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	<-recovered

	// Nothing the old link said after the replay set was taken went north:
	// the next frame is the recovery notice.
	if kind, epoch, w, ok := marshal.DecodeControl(recvReply(t, router)); !ok || kind != marshal.CtrlRecover || epoch != 1 || w != 1 {
		t.Fatalf("after the recovery: notice kind %d epoch %d w %d (ok %v), want marshal.CtrlRecover 1 1", kind, epoch, w, ok)
	}
	g.mu.Lock()
	got := shapeOf(&g.log)
	g.mu.Unlock()
	if !reflect.DeepEqual(got, shapeOf(&want)) {
		t.Fatalf("log after the recovery\n got %+v\nwant %+v", got, shapeOf(&want))
	}

	// The guest resubmits its window. The create re-executes as new, and
	// the destroy is forwarded to the server that holds the replayed object.
	resub := func(c *marshal.Call) *marshal.Reply {
		c.Flags |= marshal.FlagResubmit
		c.Epoch = 1
		sendCall(t, router, c)
		rep := recvReply(t, router)
		if rep.Seq != c.Seq || rep.Status != marshal.StatusOK {
			t.Fatalf("resubmitted seq %d answered with seq %d: %v %s", c.Seq, rep.Seq, rep.Status, rep.Err)
		}
		return rep
	}
	second := resub(&marshal.Call{Seq: 2, Func: fn("create"), Args: []marshal.Value{marshal.Uint(2), marshal.Len(8)}})
	resub(&marshal.Call{Seq: 3, Func: fn("destroy"), Args: []marshal.Value{marshal.HandleVal(7)}})
	if gs := g.Stats(); gs.SynthesizedDestroys != 0 || gs.ResubmitForwarded != 2 {
		t.Fatalf("resubmission: %d synthesized destroys, %d forwarded; want 0 and 2", gs.SynthesizedDestroys, gs.ResubmitForwarded)
	}
	wantTable := map[marshal.Handle]replayObj{second.Outs[0].Handle(): {kind: 2}}
	if table := tableOf(ctx2); !reflect.DeepEqual(table, wantTable) {
		t.Fatalf("replacement server's handle table\n got %+v\nwant %+v", table, wantTable)
	}
}

// A create past the watermark whose object was destroyed, and the destroy
// confirmed, before the crash: the guest still retains the create and
// resubmits it, while its destroy is synthesized. Forwarding the create
// would rebuild the object under a fresh handle that nothing ever frees.
func TestAdmitDropsResubmittedCallsOfADestroyedObject(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	g := New(desc, nil, Config{})
	defer g.Close()
	g.adopt(nil)
	var scratch marshal.Reply
	call := func(seq uint64, name string, flags uint16, args ...marshal.Value) *marshal.Call {
		return &marshal.Call{Seq: seq, Func: logFunc(desc, name), Flags: flags, Epoch: g.epoch, Args: args}
	}
	confirm := func(rep *marshal.Reply) {
		t.Helper()
		if !g.noteReply(g.linkGen, rep.Seq, marshal.EncodeReply(rep), &scratch) {
			t.Fatalf("reply %d on the serving link was not forwarded", rep.Seq)
		}
	}
	for _, c := range []*marshal.Call{
		call(1, "create", 0, marshal.Uint(1), marshal.Len(8)),
		call(2, "poke", marshal.FlagAsync, marshal.HandleVal(5), marshal.Uint(9)),
		call(3, "destroy", 0, marshal.HandleVal(5)),
	} {
		if forward, _ := g.admit(c, g.linkGen); !forward {
			t.Fatalf("seq %d refused", c.Seq)
		}
		if c.Seq == 1 {
			confirm(&marshal.Reply{Seq: 1, Ret: marshal.Int(0), Outs: []marshal.Value{marshal.HandleVal(5)}})
		}
	}
	confirm(&marshal.Reply{Seq: 3, Ret: marshal.Int(0)})
	if len(g.log.entries) != 0 {
		t.Fatalf("confirmed destroy left %d log entries", len(g.log.entries))
	}

	rs, _ := g.toRecovering(g.linkGen)
	g.adopt(nil)
	g.toServing(rs, g.clk.Now())

	for _, c := range []*marshal.Call{
		call(1, "create", marshal.FlagResubmit, marshal.Uint(1), marshal.Len(8)),
		call(2, "poke", marshal.FlagResubmit|marshal.FlagAsync, marshal.HandleVal(5), marshal.Uint(9)),
		call(3, "destroy", marshal.FlagResubmit, marshal.HandleVal(5)),
	} {
		if forward, _ := g.admit(c, g.linkGen); forward {
			t.Errorf("resubmitted seq %d of a destroyed object was forwarded", c.Seq)
		}
	}
	if gs := g.Stats(); gs.ResubmitForwarded != 0 || gs.SynthesizedDestroys != 1 {
		t.Fatalf("%d resubmissions forwarded, %d destroys synthesized; want 0 and 1", gs.ResubmitForwarded, gs.SynthesizedDestroys)
	}

	// A checkpoint past them makes the guest trim those frames; the
	// tombstones go with the destroy record.
	if forward, _ := g.admit(call(4, "setup", 0, marshal.Uint(0)), g.linkGen); !forward {
		t.Fatal("fresh call after the recovery refused")
	}
	cut, ok := g.beginCheckpoint()
	if !ok || cut.w != 4 {
		t.Fatalf("checkpoint cut: ok %v, w %d", ok, cut.w)
	}
	if err := g.endCheckpoint(cut, capture{}, nil); err != nil {
		t.Fatal(err)
	}
	if len(g.destroys) != 0 {
		t.Fatalf("after the checkpoint: %d destroy records and tombstones", len(g.destroys))
	}
}

// A remote server that accepts the connection and never answers costs every
// dial one control timeout (transport's ctlTimeout, 5 s). The recovery's
// backoff budget pays for those dials as well as for the sleeps between
// them: with the default budget (2 s) the guardian gives up — CtrlDead north
// — within the budget plus the one dial that overran it, not after as many
// dials as 2 s of 100 ms sleeps leave room for (some 25, over two minutes).
func TestStalledPeerDialsSpendTheBackoffBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const stall = 5 * time.Second
	desc := cava.MustCompile(logSpec)
	south, srv := transport.NewInProc()
	clk := clock.NewVirtual()
	dials := 0
	dial := func() (transport.Endpoint, error) {
		if dials++; dials == 1 {
			return south, nil
		}
		clk.Advance(stall) // the hello round trip running into its timeout
		return nil, errors.New("no control frame within 5s")
	}
	g := New(desc, dial, Config{Clock: clk})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	router := g.Endpoint()
	defer func() {
		g.Close()
		for _, ep := range []transport.Endpoint{south, srv} {
			ep.Close()
		}
	}()

	g.mu.Lock()
	gen := g.linkGen
	g.mu.Unlock()
	start := clk.Now()
	if err := g.recover(gen, errors.New("test: link declared lost")); err == nil {
		t.Fatal("recovery succeeded against a peer that never answers")
	}
	const budget = 2 * time.Second // backoff's default, which Config{} takes
	if took := clk.Since(start); took > budget+stall {
		t.Fatalf("guardian gave up after %v and %d dials; want within the %v budget plus one %v dial", took, dials-1, budget, stall)
	}
	if kind, _, _, ok := marshal.DecodeControl(recvReply(t, router)); !ok || kind != marshal.CtrlDead {
		t.Fatalf("north got control kind %d (ok %v), want CtrlDead", kind, ok)
	}
}

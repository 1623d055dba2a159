package failover

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// within runs f and fails the test if it has not returned after 2 s. A
// hung f is left running: the test's cleanup must release what it waits on.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2s", what)
	}
}

// fillNorth queues frames toward the router until the north queue is full.
func fillNorth(g *Guardian) {
	for len(g.north.q) < cap(g.north.q) {
		g.sendNorth(marshal.EncodeReply(&marshal.Reply{Seq: 0}))
	}
}

// A closed north end takes nothing in: Send reports ErrClosed and the call
// is neither recorded nor counted in flight nor forwarded.
func TestEndpointSendAfterCloseAdmitsNothing(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, desc := logServer()
	g, ep := guardServer(t, srv, srv.Context(1, "vm"), desc, Config{})
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	frame := marshal.EncodeBatch([][]byte{marshal.EncodeCall(&marshal.Call{
		Seq: 1, Func: logFunc(desc, "create"), Args: []marshal.Value{marshal.Uint(1), marshal.Len(8)},
	})})
	if err := ep.Send(frame); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.log.entries) != 0 || len(g.inflightSync) != 0 || g.maxSeq != 0 || g.sinceCkpt != 0 {
		t.Fatalf("closed end admitted the call: %d log entries, %d in flight, maxSeq %d, sinceCkpt %d",
			len(g.log.entries), len(g.inflightSync), g.maxSeq, g.sinceCkpt)
	}
}

// Guardian.Close closes the north end too: a parked Recv returns ErrClosed,
// and so does every later one, a frame still queued or not — the router's
// downlink stops, and its Attach returns.
func TestEndpointRecvReturnsErrClosedAfterGuardianClose(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, desc := logServer()
	g, ep := guardServer(t, srv, srv.Context(1, "vm"), desc, Config{})
	parked := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		parked <- err
	}()
	time.Sleep(time.Millisecond) // let Recv park, though either order must hold
	g.Close()
	select {
	case err := <-parked:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("parked Recv: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still parked after Guardian.Close")
	}
	g.north.q <- marshal.EncodeReply(&marshal.Reply{Seq: 1})
	if _, err := ep.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv after Close with a frame queued: %v, want ErrClosed", err)
	}
}

// When the router has gone (its side of the endpoint closed) and nobody
// reads the north queue, a recovery still finishes: the CtrlRecover notice
// is dropped, not waited for, and the guardian goes on serving the
// replacement.
func TestRecoveryFinishesAfterTheRouterSideCloses(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, desc := logServer()
	var served []chan struct{}
	var serverEPs []transport.Endpoint
	dial := func() (transport.Endpoint, error) {
		srv.DropContext(1) // every incarnation starts clean
		south, serverEP := transport.NewInProc()
		ctx := srv.Context(1, "vm")
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeVM(ctx, serverEP)
		}()
		served, serverEPs = append(served, done), append(serverEPs, serverEP)
		return south, nil
	}
	g := New(desc, dial, Config{})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		for i, ep := range serverEPs {
			ep.Close()
			<-served[i]
		}
	})
	ep := g.Endpoint()
	sendCall(t, ep, &marshal.Call{Seq: 1, Func: logFunc(desc, "ping"), Args: []marshal.Value{marshal.Uint(0)}})
	if rep := recvReply(t, ep); rep.Seq != 1 || rep.Status != marshal.StatusOK {
		t.Fatalf("ping: %+v", rep)
	}

	fillNorth(g)
	ep.Close()
	g.KillServer()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Recoveries == 0 || inGuardian("recover") {
		if time.Now().After(deadline) {
			t.Fatalf("recovery did not finish with the router side closed: stats %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.DeadErr(); err != nil {
		t.Fatal(err)
	}
}

// inGuardian reports whether some goroutine is inside the named Guardian
// method.
func inGuardian(method string) bool {
	for _, stack := range leaktest.Goroutines() {
		if strings.Contains(stack, "failover.(*Guardian)."+method+"(") {
			return true
		}
	}
	return false
}

// admit answers a resubmitted call that completed before the crash from the
// shadow log, and that answer goes north after mu is released: with the
// north queue full and nobody reading, the Send carrying the call waits on
// the queue while Stats and the downlink's noteReply go on. Sent under the
// lock, the wait would hold every other path of the guardian with it.
func TestShortCircuitAnswerWaitsOutsideTheLock(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	create := func(flags uint16, epoch uint32) *marshal.Call {
		return &marshal.Call{Seq: 1, Func: logFunc(desc, "create"), Flags: flags, Epoch: epoch,
			Args: []marshal.Value{marshal.Uint(1), marshal.Len(8)}}
	}
	g := New(desc, nil, Config{Clock: clock.NewVirtual()})
	ep := g.Endpoint()
	g.adopt(nil)

	// First life: the create completes, its reply is recorded, and a
	// checkpoint covers it.
	var scratch marshal.Reply
	if forward, _ := g.admit(create(0, 0), g.linkGen); !forward {
		t.Fatal("create refused")
	}
	reply := &marshal.Reply{Seq: 1, Ret: marshal.Int(0), Outs: []marshal.Value{marshal.HandleVal(5)}}
	if !g.noteReply(g.linkGen, 1, marshal.EncodeReply(reply), &scratch) {
		t.Fatal("create's reply not forwarded")
	}
	cut, ok := g.beginCheckpoint()
	if !ok || cut.w != 1 {
		t.Fatalf("checkpoint cut: ok %v, w %d", ok, cut.w)
	}
	if err := g.endCheckpoint(cut, capture{}, nil); err != nil {
		t.Fatal(err)
	}

	// The link is lost; the replacement is a hand-played server.
	rs, _ := g.toRecovering(g.linkGen)
	south, srv := transport.NewInProc()
	g.adopt(south)
	g.toServing(rs, g.clk.Now())
	t.Cleanup(func() {
		go func() { // whatever still waits on the queue gets through
			for {
				if _, err := ep.Recv(); err != nil {
					return
				}
			}
		}()
		g.Close()
		srv.Close()
	})

	fillNorth(g)
	sent := goSendCall(ep, create(marshal.FlagResubmit, rs.epoch))
	for short := uint64(0); short == 0; time.Sleep(time.Millisecond) {
		within(t, "Stats with a short-circuit answer waiting on the north queue", func() { short = g.Stats().ShortCircuited })
	}

	// A fresh sync call goes south and is answered: the downlink notes the
	// reply (then waits on the queue itself).
	within(t, "admit with a short-circuit answer waiting on the north queue", func() {
		if forward, _ := g.admit(&marshal.Call{Seq: 2, Func: logFunc(desc, "ping"), Epoch: rs.epoch}, g.linkGen); !forward {
			t.Error("fresh call refused")
		}
	})
	if err := srv.Send(marshal.EncodeReply(&marshal.Reply{Seq: 2})); err != nil {
		t.Fatal(err)
	}
	for pending := 1; pending > 0; time.Sleep(time.Millisecond) {
		within(t, "the downlink's noteReply", func() {
			g.mu.Lock()
			pending = len(g.inflightSync)
			g.mu.Unlock()
		})
	}

	// Once the router reads again, both replies arrive: the recorded one
	// from the shadow log and the server's.
	got := map[uint64]*marshal.Reply{}
	for len(got) < 2 {
		if rep := recvReply(t, ep); rep.Seq == 1 || rep.Seq == 2 {
			got[rep.Seq] = rep
		}
	}
	if rep := got[1]; rep == nil || len(rep.Outs) != 1 || rep.Outs[0].Handle() != 5 {
		t.Fatalf("short-circuit answer %+v, want the recorded handle 5", rep)
	}
	if got[2] == nil {
		t.Fatal("the server's reply to seq 2 never went north")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// Tests for where ServeVM runs a call: on its own receiving goroutine while
// no call of the VM is on a worker and the call declares no resource, on a
// worker otherwise.

const placeSpec = `
api "placetest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

st note(obj o, uint32_t x) { async; }
st ask(obj o, uint32_t x);
st load(obj o, uint32_t x) { resource(device_time, 1); }
`

// goid is the calling goroutine's id, from the first line of its stack
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(line[:bytes.IndexByte(line, ' ')]), 10, 64)
	return id
}

// placement serves placeSpec and records, per argument x, the goroutine the
// call's handler ran on. note fails (returns 1) when x is 1; ask and load
// park until block is closed when x is 1.
type placement struct {
	srv    *Server
	desc   *cava.Descriptor
	block  chan struct{}
	linger time.Duration // how long the server's sends stay in Send, past the hand-over

	mu sync.Mutex
	on map[uint64]uint64 // x -> goroutine id
}

func newPlacement(t *testing.T) *placement {
	t.Helper()
	p := &placement{desc: cava.MustCompile(placeSpec), block: make(chan struct{}), on: map[uint64]uint64{}}
	reg := NewRegistry(p.desc)
	record := func(inv *Invocation) {
		p.mu.Lock()
		p.on[inv.Uint(1)] = goid()
		p.mu.Unlock()
	}
	reg.MustRegister("note", func(inv *Invocation) error {
		record(inv)
		if inv.Uint(1) == 1 {
			inv.SetStatus(1)
		} else {
			inv.SetStatus(0)
		}
		return nil
	})
	park := func(inv *Invocation) error {
		record(inv)
		if inv.Uint(1) == 1 {
			<-p.block
		}
		inv.SetStatus(0)
		return nil
	}
	reg.MustRegister("ask", park)
	reg.MustRegister("load", park)
	p.srv = New(reg)
	return p
}

func (p *placement) goroutine(x uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.on[x]
}

// serve starts ServeVM for a fresh context and returns the guest's end, the
// id of the goroutine ServeVM runs on, and ServeVM's result.
func (p *placement) serve(t *testing.T, vm uint32) (transport.Endpoint, uint64, chan error) {
	t.Helper()
	guestEP, serverEP := transport.NewInProc()
	if p.linger > 0 {
		serverEP = lingeringSends{serverEP, p.linger}
	}
	gid, served := make(chan uint64, 1), make(chan error, 1)
	go func() {
		gid <- goid()
		served <- p.srv.ServeVM(p.srv.Context(vm, "vm"), serverEP)
	}()
	return guestEP, <-gid, served
}

// lingeringSends is an endpoint whose Send returns only some time after the
// peer can have the frame: a sender descheduled right after its send.
type lingeringSends struct {
	transport.Endpoint
	linger time.Duration
}

func (e lingeringSends) Send(frame []byte) error {
	err := e.Endpoint.Send(frame)
	time.Sleep(e.linger)
	return err
}

// call builds one call on handle o (so in its ordering domain) with
// argument x; flags 0 = synchronous.
func (p *placement) call(seq uint64, name string, flags uint16, o, x uint64) *marshal.Call {
	fd, ok := p.desc.Lookup(name)
	if !ok {
		panic(name)
	}
	return &marshal.Call{Seq: seq, Func: fd.ID, Flags: flags,
		Args: []marshal.Value{marshal.HandleVal(marshal.Handle(o)), marshal.Uint(x)}}
}

func sendFrame(t *testing.T, ep transport.Endpoint, calls ...*marshal.Call) {
	t.Helper()
	frames := make([][]byte, len(calls))
	for i, c := range calls {
		frames[i] = marshal.EncodeCall(c)
	}
	if err := ep.Send(marshal.EncodeBatch(frames)); err != nil {
		t.Fatal(err)
	}
}

func recvReply(t *testing.T, ep transport.Endpoint) *marshal.Reply {
	t.Helper()
	frame, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func closeServed(t *testing.T, ep transport.Endpoint, served chan error) {
	t.Helper()
	ep.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeVM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeVM did not return")
	}
}

// A frame of resource-free calls, four async and one sync, arriving while
// nothing of the VM is on a worker runs entirely on ServeVM's goroutine, and
// its reply — the deferred note of the failed async call included — is the
// one the dispatch path gives anywhere.
func TestResourceFreeFrameRunsOnServeVMGoroutine(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := newPlacement(t)
	ep, serveGID, served := p.serve(t, 1)
	frame := []*marshal.Call{
		p.call(1, "note", marshal.FlagAsync, 5, 10),
		p.call(2, "note", marshal.FlagAsync, 6, 1), // fails: its note is deferred
		p.call(3, "note", marshal.FlagAsync, 7, 12),
		p.call(4, "note", marshal.FlagAsync, 5, 13),
		p.call(5, "ask", 0, 8, 20),
	}
	sendFrame(t, ep, frame...)
	got := recvReply(t, ep)
	closeServed(t, ep, served)

	for _, x := range []uint64{10, 1, 12, 13, 20} {
		if g := p.goroutine(x); g != serveGID {
			t.Errorf("call %d ran on goroutine %d, not ServeVM's (%d)", x, g, serveGID)
		}
	}
	// The same calls through Execute on a context of their own.
	ref := p.srv.Context(2, "ref")
	var want *marshal.Reply
	for _, c := range frame {
		want = p.srv.Execute(ref, c)
	}
	if got.Seq != want.Seq || got.Status != want.Status || !got.Ret.Equal(want.Ret) || got.Err != want.Err {
		t.Fatalf("reply = seq %d %v ret %v %q, want seq %d %v ret %v %q",
			got.Seq, got.Status, got.Ret, got.Err, want.Seq, want.Status, want.Ret, want.Err)
	}
	if got.Err != "deferred: async note: API error 1" {
		t.Fatalf("reply carries %q, want the failed async call's deferred note", got.Err)
	}
}

// Inlining stops at a frame's first resourced call: in [free, resourced,
// free] only the first runs on ServeVM's goroutine. A worker drops a call
// from the VM's backlog before sending its reply, so the next frame, sent
// once both sync calls are answered, finds the VM idle and runs inline —
// even while the workers still linger in their sends.
func TestInliningStopsAtFirstResourcedCall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := newPlacement(t)
	p.linger = 20 * time.Millisecond
	ep, serveGID, served := p.serve(t, 1)
	sendFrame(t, ep,
		p.call(1, "note", marshal.FlagAsync, 5, 10),
		p.call(2, "load", 0, 6, 11),
		p.call(3, "ask", 0, 7, 12),
	)
	answered := map[uint64]bool{} // two domains, two workers: either may answer first
	for range 2 {
		rep := recvReply(t, ep)
		if rep.Status != marshal.StatusOK {
			t.Fatalf("reply %+v", rep)
		}
		answered[rep.Seq] = true
	}
	if !answered[2] || !answered[3] {
		t.Fatalf("answered %v, want the two sync calls (2, 3)", answered)
	}
	sendFrame(t, ep, p.call(4, "note", marshal.FlagAsync, 6, 13), p.call(5, "ask", 0, 7, 14))
	if rep := recvReply(t, ep); rep.Seq != 5 || rep.Status != marshal.StatusOK {
		t.Fatalf("reply %+v, want call 5's", rep)
	}
	closeServed(t, ep, served)
	for _, x := range []uint64{10, 13, 14} {
		if g := p.goroutine(x); g != serveGID {
			t.Errorf("resource-free call %d ran on goroutine %d, not ServeVM's (%d)", x, g, serveGID)
		}
	}
	for _, x := range []uint64{11, 12} {
		if g := p.goroutine(x); g == 0 || g == serveGID {
			t.Errorf("call %d after the resourced call ran on goroutine %d (ServeVM's is %d); want a worker", x, g, serveGID)
		}
	}
}

// While a resourced call holds a worker, a resource-free sync call in a
// later frame is not run inline behind it: it goes to a worker of its own
// domain and is answered while the resourced call is still blocked.
func TestResourceFreeCallWaitsForNoBusyWorker(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := newPlacement(t)
	ep, serveGID, served := p.serve(t, 1)
	defer closeServed(t, ep, served)
	release := sync.OnceFunc(func() { close(p.block) })
	// Runs before closeServed: a failed check must not strand the worker.
	defer release()
	sendFrame(t, ep, p.call(1, "load", 0, 5, 1)) // parks on p.block
	for p.goroutine(1) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	sendFrame(t, ep, p.call(2, "ask", 0, 6, 20))
	answered := make(chan []byte, 1)
	go func() {
		frame, _ := ep.Recv()
		answered <- frame
	}()
	select {
	case frame := <-answered:
		if rep, err := marshal.DecodeReply(frame); err != nil || rep.Seq != 2 || rep.Status != marshal.StatusOK {
			t.Fatalf("first reply %+v (%v), want the resource-free call's", rep, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the resource-free call was not answered while the resourced call blocked")
	}
	if g := p.goroutine(20); g == serveGID {
		t.Errorf("resource-free call ran on ServeVM's goroutine while a worker held the VM's calls")
	}
	release()
	if rep := recvReply(t, ep); rep.Seq != 1 || rep.Status != marshal.StatusOK {
		t.Fatalf("resourced call's reply %+v", rep)
	}
}

// The limit of the spec-author contract (a handler that can wait declares a
// resource): a resource-free handler that blocks holds its VM's receive
// loop, so a later frame of that VM waits for it whatever its domain, while
// another VM of the same server is served as usual.
func TestBlockingResourceFreeCallStallsOnlyItsVM(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	p := newPlacement(t)
	ep1, serveGID, served1 := p.serve(t, 1)
	defer closeServed(t, ep1, served1)
	ep2, _, served2 := p.serve(t, 2)
	defer closeServed(t, ep2, served2)
	release := sync.OnceFunc(func() { close(p.block) })
	// Runs before the closeServed calls: a failed check must not strand
	// VM 1's loop.
	defer release()
	sendFrame(t, ep1, p.call(1, "ask", 0, 5, 1)) // parks on p.block, inline
	for p.goroutine(1) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if g := p.goroutine(1); g != serveGID {
		t.Fatalf("resource-free call ran on goroutine %d, not ServeVM's (%d)", g, serveGID)
	}
	sendFrame(t, ep1, p.call(2, "ask", 0, 6, 20))
	sendFrame(t, ep2, p.call(1, "ask", 0, 5, 30))
	if rep := recvReply(t, ep2); rep.Seq != 1 || rep.Status != marshal.StatusOK {
		t.Fatalf("VM 2's reply %+v", rep)
	}
	time.Sleep(20 * time.Millisecond)
	if g := p.goroutine(20); g != 0 {
		t.Fatalf("VM 1's second call ran (on goroutine %d) while its receive loop was blocked", g)
	}
	release()
	for _, want := range []uint64{1, 2} {
		if rep := recvReply(t, ep1); rep.Seq != want || rep.Status != marshal.StatusOK {
			t.Fatalf("VM 1's reply %+v, want call %d's", rep, want)
		}
	}
}

package server

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// Tests that Stats.ExecTime stays the handler time of the calls timed on their
// own, and that RunTime, which times each run of deadline-free async calls as
// one span, covers the rest: on a virtual clock that only the handlers move,
// each must add up to exactly what its calls' handlers advanced, however the
// calls were grouped into runs, and no wait or control call may be charged.

const execSpec = `
api "exectime";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

st tick(obj o, uint32_t us) { async; }
st ask(obj o, uint32_t us);
st work(obj o, uint32_t us) { resource(device_time, 1); async; }
st gate(obj o, uint32_t us) { resource(device_time, 1); async; }
st hog(uint32_t us) { resource(device_time, 1); async; }
st join(obj o, obj p, uint32_t us) { resource(device_time, 1); }
`

// execRig serves execSpec on a virtual clock. Every handler advances the
// clock by its us argument. work and hog then report on parked and park until
// hold is closed; gate first waits for some worker to park at the §4.2
// barrier (completions.await). Snapshotting an object takes snapshotCost.
type execRig struct {
	srv     *Server
	ctx     *Context
	desc    *cava.Descriptor
	clk     *clock.Virtual
	parked  chan struct{}
	hold    chan struct{}
	seq     uint64
	ep      transport.Endpoint
	served  chan error
	gateErr chan error
}

func newExecRig(t *testing.T) *execRig {
	t.Helper()
	r := &execRig{desc: cava.MustCompile(execSpec), clk: clock.NewVirtual(),
		parked: make(chan struct{}, 1), hold: make(chan struct{}), gateErr: make(chan error, 1)}
	reg := NewRegistry(r.desc)
	advance := func(inv *Invocation) error {
		r.clk.Advance(time.Duration(inv.Uint(len(inv.args)-1)) * time.Microsecond)
		inv.SetStatus(0)
		return nil
	}
	reg.MustRegister("tick", advance)
	reg.MustRegister("ask", advance)
	reg.MustRegister("join", advance)
	park := func(inv *Invocation) error {
		err := advance(inv)
		r.parked <- struct{}{}
		<-r.hold
		return err
	}
	reg.MustRegister("work", park)
	reg.MustRegister("hog", park)
	reg.MustRegister("gate", func(inv *Invocation) error {
		for give := time.Now().Add(10 * time.Second); !parkedAtBarrier(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(give) {
				r.gateErr <- errors.New("no worker parked at the barrier")
				break
			}
		}
		return advance(inv)
	})
	reg.Adapter = slowSnapshots{r.clk}
	r.srv = New(reg)
	r.ctx = r.srv.Context(1, "vm")
	r.ctx.SetClock(r.clk)
	return r
}

const snapshotCost = time.Millisecond

// slowSnapshots is an Adapter whose snapshot of an object advances the
// virtual clock by snapshotCost.
type slowSnapshots struct{ clk *clock.Virtual }

func (a slowSnapshots) SnapshotObject(any, bool) (marshal.ObjectDelta, bool, error) {
	a.clk.Advance(snapshotCost)
	return marshal.FullDelta(0, []byte{1}), true, nil
}

func (slowSnapshots) RestoreObject(any, []byte) error { return nil }

// parkedAtBarrier reports whether some goroutine is blocked waiting in
// completions.await for another worker.
func parkedAtBarrier() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*completions).await")) && bytes.Contains(g, []byte("sync.(*Cond).Wait")) {
			return true
		}
	}
	return false
}

// idleRecv is an endpoint on which waiting for a frame takes idle of the
// virtual clock: time no run may be charged for.
type idleRecv struct {
	transport.Endpoint
	clk  *clock.Virtual
	idle time.Duration
}

func (e idleRecv) Recv() ([]byte, error) {
	e.clk.Advance(e.idle)
	return e.Endpoint.Recv()
}

// serve starts ServeVM; waiting for each frame takes idle.
func (r *execRig) serve(idle time.Duration) {
	guestEP, serverEP := transport.NewInProc()
	r.ep, r.served = guestEP, make(chan error, 1)
	go func() { r.served <- r.srv.ServeVM(r.ctx, idleRecv{serverEP, r.clk, idle}) }()
}

// call builds a call of name on handles hs with us as its last argument; a
// positive budget gives it a deadline that far past its admission.
func (r *execRig) call(name string, flags uint16, budget time.Duration, us uint64, hs ...uint64) *marshal.Call {
	fd, ok := r.desc.Lookup(name)
	if !ok {
		panic(name)
	}
	r.seq++
	c := &marshal.Call{Seq: r.seq, Func: fd.ID, Flags: flags}
	for _, h := range hs {
		c.Args = append(c.Args, marshal.HandleVal(marshal.Handle(h)))
	}
	c.Args = append(c.Args, marshal.Uint(us))
	if budget > 0 {
		c.Stamps.Admit = r.clk.Now().UnixNano()
		c.Deadline = c.Stamps.Admit + int64(budget)
	}
	return c
}

func TestExecTimeIsTheSumOfHandlerTime(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const async = marshal.FlagAsync
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	for _, tc := range []struct {
		name              string
		run               func(t *testing.T, r *execRig)
		exec, runs        time.Duration // handler time of the calls timed on their own; of the rest
		calls, asyncCalls uint64
	}{{
		// Four async calls and a sync one on the receiving goroutine: one
		// run, closed by the sync call's dispatch.
		name: "inline run",
		run: func(t *testing.T, r *execRig) {
			r.serve(us(1000))
			sendFrame(t, r.ep, r.call("tick", async, 0, 3, 1), r.call("tick", async, 0, 5, 2),
				r.call("tick", async, 0, 7, 1), r.call("tick", async, 0, 11, 3), r.call("ask", 0, 0, 13, 4))
			recvReply(t, r.ep)
		},
		exec: us(13), runs: us(3 + 5 + 7 + 11), calls: 5, asyncCalls: 4,
	}, {
		// A frame that ends on async calls closes its run before the receive
		// loop waits for the next frame, so the wait is not charged.
		name: "frame ends on async calls",
		run: func(t *testing.T, r *execRig) {
			r.serve(us(1000))
			sendFrame(t, r.ep, r.call("ask", 0, 0, 2, 1), r.call("tick", async, 0, 3, 1), r.call("tick", async, 0, 5, 2))
			recvReply(t, r.ep)
			sendFrame(t, r.ep, r.call("ask", 0, 0, 7, 1))
			recvReply(t, r.ep)
		},
		exec: us(2 + 7), runs: us(3 + 5), calls: 4, asyncCalls: 2,
	}, {
		// A call with a deadline takes its own readings in the middle of a
		// run: its dispatch closes the run and its return opens the next.
		name: "deadline call inside a run",
		run: func(t *testing.T, r *execRig) {
			r.serve(us(1000))
			sendFrame(t, r.ep, r.call("tick", async, 0, 3, 1), r.call("tick", async, time.Hour, 5, 1),
				r.call("tick", async, 0, 7, 1), r.call("tick", async, 0, 11, 1))
			sendFrame(t, r.ep, r.call("ask", 0, time.Hour, 13, 1))
			recvReply(t, r.ep)
		},
		exec: us(5 + 13), runs: us(3 + 7 + 11), calls: 5, asyncCalls: 4,
	}, {
		// A worker whose run holds an async call reaches a sync call that
		// must wait for another worker's async call (§4.2): it closes its
		// run before it parks, so the other worker's time is charged once.
		// work (domain 1) has run when the second frame arrives, and parks
		// its worker until that frame is queued; gate (domain 2) runs only
		// once that worker is parked at the barrier.
		name: "worker run waits at the barrier",
		run: func(t *testing.T, r *execRig) {
			r.serve(0)
			sendFrame(t, r.ep, r.call("work", async, 0, 3, 1))
			<-r.parked
			sendFrame(t, r.ep, r.call("gate", async, 0, 7, 2), r.call("join", 0, 0, 11, 1, 3))
			for r.ctx.QueueDepth() < 3 {
				time.Sleep(100 * time.Microsecond)
			}
			close(r.hold)
			recvReply(t, r.ep)
		},
		exec: us(11), runs: us(3 + 7), calls: 3, asyncCalls: 2,
	}, {
		// A control call queued behind an async call on the same worker
		// closes the worker's run before it executes: a snapshot is timed
		// by no run. hog and the handle-less snapshot share domain 0; hog
		// parks its worker until both are queued.
		name: "control call inside a worker run",
		run: func(t *testing.T, r *execRig) {
			if err := r.ctx.Handles.InsertAt(1, struct{}{}); err != nil {
				t.Fatal(err)
			}
			r.serve(0)
			r.seq++
			sendFrame(t, r.ep, r.call("hog", async, 0, 3), &marshal.Call{Seq: r.seq, Func: marshal.FuncSnapshot, Args: []marshal.Value{marshal.Int(1)}})
			<-r.parked
			for r.ctx.QueueDepth() < 2 {
				time.Sleep(100 * time.Microsecond)
			}
			close(r.hold)
			if rep := recvReply(t, r.ep); rep.Status != marshal.StatusOK {
				t.Fatalf("snapshot: %v %s", rep.Status, rep.Err)
			}
		},
		runs: us(3), calls: 2, asyncCalls: 1,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newExecRig(t)
			tc.run(t, r)
			closeServed(t, r.ep, r.served)
			select {
			case err := <-r.gateErr:
				t.Fatal(err)
			default:
			}
			st := r.ctx.Stats()
			if st.ExecTime != tc.exec || st.RunTime != tc.runs {
				t.Errorf("ExecTime/RunTime = %v/%v, want %v/%v, the handlers' sums", st.ExecTime, st.RunTime, tc.exec, tc.runs)
			}
			if st.Calls != tc.calls || st.AsyncCalls != tc.asyncCalls || st.Errors != 0 {
				t.Errorf("Calls/AsyncCalls/Errors = %d/%d/%d, want %d/%d/0", st.Calls, st.AsyncCalls, st.Errors, tc.calls, tc.asyncCalls)
			}
		})
	}
}

// A run-timed call has no dispatch reading of its own, so it adds nothing
// to AdmitToDispatch: only the sync call behind it, which waited for the
// frame (the idle of Recv) and for the async call's handler, does.
func TestRunTimedCallsAddNoAdmitToDispatch(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := newExecRig(t)
	r.serve(time.Millisecond)
	tick, ask := r.call("tick", marshal.FlagAsync, 0, 3, 1), r.call("ask", 0, 0, 5, 1)
	tick.Stamps.Admit = r.clk.Now().UnixNano()
	ask.Stamps.Admit = tick.Stamps.Admit
	sendFrame(t, r.ep, tick, ask)
	recvReply(t, r.ep)
	closeServed(t, r.ep, r.served)
	if got, want := r.ctx.Stats().AdmitToDispatch, time.Millisecond+3*time.Microsecond; got != want {
		t.Fatalf("AdmitToDispatch = %v, want %v, the sync call's wait", got, want)
	}
}

// Execute and ExecuteFrame time every call on its own: an async call's
// handler time is in ExecTime before they return.
func TestExecuteTimesEachCallOnItsOwn(t *testing.T) {
	r := newExecRig(t)
	r.srv.Execute(r.ctx, r.call("tick", marshal.FlagAsync, 0, 3, 1))
	if _, err := r.srv.ExecuteFrame(r.ctx, marshal.EncodeCall(r.call("tick", marshal.FlagAsync, 0, 5, 1))); err != nil {
		t.Fatal(err)
	}
	if st := r.ctx.Stats(); st.ExecTime != 8*time.Microsecond || st.RunTime != 0 || st.AsyncCalls != 2 {
		t.Fatalf("ExecTime/RunTime = %v/%v over %d async calls, want 8µs/0 over 2", st.ExecTime, st.RunTime, st.AsyncCalls)
	}
}

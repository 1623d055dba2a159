package server

import (
	"ava/internal/leaktest"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// Tests for the pooled dispatch path: the ordering scheme's bookkeeping, and
// the ownership rules that make reusing call slots sound.

const dispatchSpec = `
api "dispatchtest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

st create(uint32_t kind, obj *o) {
  parameter(o) { out; element { allocates; } }
  track(create, o);
}
st destroy(obj o) { track(destroy, o); }
st fill(obj o, size_t n, const void *data) {
  parameter(data) { in; buffer(n); }
  track(modify, o);
  resource(bandwidth, n);
  async;
}
st link(obj a, obj b) { async; }
st ping(uint32_t x);
st wait(obj o, uint32_t x);
st hold(obj o, uint32_t x) { resource(device_time, 1); }
`

// dispatchServer serves dispatchSpec: create/destroy manage objects, fill and
// link succeed, ping answers, and wait parks on inv.Done() when the call
// carries a deadline — reporting through onWait what it saw on the way out.
// hold is wait declaring a resource, so ServeVM runs it on a worker.
func dispatchServer(t testing.TB, onWait func(x uint64, err error)) (*Server, *cava.Descriptor) {
	t.Helper()
	desc := cava.MustCompile(dispatchSpec)
	reg := NewRegistry(desc)
	ok := func(inv *Invocation) error { inv.SetStatus(0); return nil }
	reg.MustRegister("create", func(inv *Invocation) error {
		inv.SetOutHandle(1, inv.Ctx.Handles.Insert(inv.Uint(0)))
		return ok(inv)
	})
	reg.MustRegister("destroy", func(inv *Invocation) error {
		inv.Ctx.Handles.Remove(inv.Handle(0))
		return ok(inv)
	})
	reg.MustRegister("fill", ok)
	reg.MustRegister("link", ok)
	reg.MustRegister("ping", ok)
	wait := func(inv *Invocation) error {
		x := inv.Uint(1)
		if dl, has := inv.Deadline(); has && time.Until(dl) < time.Second {
			<-inv.Done() // a short budget: sit it out
			if onWait != nil {
				onWait(x, inv.Err())
			}
			return inv.Err()
		}
		// No deadline, or a generous one: a cancellation here can only have
		// come from some other call's timer.
		time.Sleep(50 * time.Microsecond)
		if onWait != nil {
			onWait(x, inv.Err())
		}
		if err := inv.Err(); err != nil {
			return err
		}
		return ok(inv)
	}
	reg.MustRegister("wait", wait)
	reg.MustRegister("hold", wait)
	return New(reg), desc
}

// wire drives a server's serve loop over an in-process pair the way a guest
// would: batches out, replies back.
type wire struct {
	t    testing.TB
	desc *cava.Descriptor
	ep   transport.Endpoint
	seq  uint64
	done chan error
}

func serveOver(t testing.TB, srv *Server, ctx *Context, desc *cava.Descriptor, ord *ordering) *wire {
	t.Helper()
	guest, server := transport.NewInProc()
	w := &wire{t: t, desc: desc, ep: guest, done: make(chan error, 1)}
	go func() { w.done <- srv.serveVM(ctx, server, ord) }()
	return w
}

// call encodes one call; flags 0 = synchronous.
func (w *wire) call(name string, flags uint16, deadline time.Duration, args ...marshal.Value) []byte {
	fd, ok := w.desc.Lookup(name)
	if !ok {
		w.t.Fatalf("no function %s", name)
	}
	w.seq++
	c := &marshal.Call{Seq: w.seq, Func: fd.ID, Flags: flags, Args: args}
	if deadline > 0 {
		c.Stamps.Encode = time.Now().UnixNano()
		c.Deadline = c.Stamps.Encode + int64(deadline)
	}
	return marshal.EncodeCall(c)
}

// send ships calls as one batch frame drawn from the frame pool, so the
// server's recycling hands the same buffers back for later batches.
func (w *wire) send(calls ...[]byte) {
	n := 2
	for _, c := range calls {
		n += 4 + len(c)
	}
	frame := framebuf.Get(n)
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(calls)))
	for _, c := range calls {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(c)))
		frame = append(frame, c...)
	}
	if err := w.ep.Send(frame); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wire) recv() *marshal.Reply {
	frame, err := w.ep.Recv()
	if err != nil {
		w.t.Fatal(err)
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil {
		w.t.Fatal(err)
	}
	return rep
}

func (w *wire) close() {
	w.ep.Close()
	select {
	case err := <-w.done:
		if err != nil {
			w.t.Fatalf("serve loop: %v", err)
		}
	case <-time.After(10 * time.Second):
		w.t.Fatal("serve loop did not return")
	}
}

func slotOf(args ...marshal.Value) *callSlot {
	return &callSlot{call: marshal.Call{Args: args}}
}

func TestOrderingPlansDependencies(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	o := newOrdering()
	h := func(v uint64) marshal.Value { return marshal.HandleVal(marshal.Handle(v)) }

	// Domains spread round-robin and stick.
	a := slotOf(h(10))
	o.plan(a, 10, false)
	b := slotOf(h(20))
	o.plan(b, 20, false)
	a2 := slotOf(h(10))
	o.plan(a2, 10, false)
	if a.worker == b.worker || a2.worker != a.worker || a2.ticket != a.ticket+1 {
		t.Fatalf("workers %d %d %d, tickets %d %d", a.worker, b.worker, a2.worker, a.ticket, a2.ticket)
	}
	if a2.need != ([ServeWorkers]uint64{}) {
		t.Fatalf("same-domain call waits on %v; the worker's queue already orders it", a2.need)
	}

	// A call in domain 20 that also names handle 10 waits for handle 10's
	// latest call, on that call's worker.
	c := slotOf(h(20), h(10))
	o.plan(c, 20, false)
	want := [ServeWorkers]uint64{}
	want[a.worker] = a2.ticket
	if c.need != want {
		t.Fatalf("cross-domain need = %v, want %v", c.need, want)
	}

	// The same handle twice in one call must not make the call wait on
	// itself (or on anything: it is alone in its domain).
	d := slotOf(h(30), h(30))
	o.plan(d, 30, false)
	if d.need != ([ServeWorkers]uint64{}) {
		t.Fatalf("call naming one handle twice waits on %v", d.need)
	}

	// A synchronization point waits for every worker's latest async call
	// but its own worker's.
	s := slotOf(h(10))
	o.plan(s, 10, true)
	want = [ServeWorkers]uint64{}
	want[b.worker] = c.ticket // domain 20's worker: calls b and c
	want[d.worker] = d.ticket
	if s.need != want {
		t.Fatalf("sync barrier = %v, want %v", s.need, want)
	}
	// ...and a later sync call does not wait for that sync call.
	s2 := slotOf(h(20))
	o.plan(s2, 20, true)
	if s2.need[s.worker] != a2.ticket {
		t.Fatalf("sync call waits for ticket %d on worker %d, want the last async (%d)", s2.need[s.worker], s.worker, a2.ticket)
	}

	// Retiring a destroyed handle drops its entries, unless a later call
	// has named it since.
	o.retire(30, ticket{d.worker, d.ticket})
	if _, ok := o.lastTouch[30]; ok {
		t.Fatal("retired handle still has a lastTouch entry")
	}
	if _, ok := o.domains[30]; ok {
		t.Fatal("retired handle still has a domain")
	}
	o.retire(10, ticket{a.worker, a.ticket}) // superseded by a2, s
	if _, ok := o.lastTouch[10]; !ok {
		t.Fatal("a handle named after its destroy lost its entries")
	}
}

// A long-lived VM that creates and releases objects must not accumulate
// ordering entries for the dead ones, whether a destroy runs on a worker
// (behind a resourced fill in its frame) or inline on the receiving
// goroutine (alone in a frame sent once a ping behind the fill has been
// answered: a worker's reply leaves after the call has left the VM's
// backlog, so the destroy finds the VM idle, and the fill a worker ran left
// entries for it to drop).
func TestServeVMOrderingMapsStayBounded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, input := range []struct {
		name          string
		destroyInline bool
	}{
		{"destroys on workers", false},
		{"destroys inline", true},
	} {
		t.Run(input.name, func(t *testing.T) {
			srv, desc := dispatchServer(t, nil)
			ctx := srv.Context(1, "vm1")
			ord := newOrdering()
			w := serveOver(t, srv, ctx, desc, ord)
			const cycles = 10000
			for i := 0; i < cycles; i++ {
				w.send(w.call("create", 0, 0, marshal.Uint(1), marshal.Len(8)))
				rep := w.recv()
				if rep.Status != marshal.StatusOK || len(rep.Outs) != 1 {
					t.Fatalf("create: %+v", rep)
				}
				obj := rep.Outs[0]
				fill := w.call("fill", marshal.FlagAsync, 0, obj, marshal.Uint(4), marshal.BytesVal([]byte("data")))
				if input.destroyInline {
					w.send(fill, w.call("ping", 0, 0, marshal.Uint(0)))
					if rep := w.recv(); rep.Status != marshal.StatusOK {
						t.Fatalf("ping: %+v", rep)
					}
					w.send(w.call("destroy", 0, 0, obj))
				} else {
					w.send(fill, w.call("destroy", 0, 0, obj))
				}
				if rep := w.recv(); rep.Status != marshal.StatusOK {
					t.Fatalf("destroy: %+v", rep)
				}
			}
			w.close()
			if n := len(ord.domains) + len(ord.lastTouch); n > 8 {
				t.Fatalf("after %d create/release cycles the ordering maps hold %d entries (%d domains, %d handles)",
					cycles, n, len(ord.domains), len(ord.lastTouch))
			}
			calls := uint64(3 * cycles)
			if input.destroyInline {
				calls = 4 * cycles
			}
			if st := ctx.Stats(); st.Calls != calls || st.Errors != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// Ownership rule: an Invocation that armed a deadline timer is never
// reused, so a timer can only ever cancel its own call. Calls with a 1 ms
// budget park until their timer fires; a thousand calls without a deadline,
// and calls with a generous one, run through the same pooled slots between
// them and must never see a cancellation. Once with wait, which declares no
// resource, so every call runs in turn on the receiving goroutine; once
// with hold, which does, so the calls run on the workers and the plain ones
// recycle slots while a 1 ms timer is live on another worker.
func TestDeadlineTimerCancelsOnlyItsOwnInvocation(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, fn := range []string{"wait", "hold"} {
		t.Run(fn, func(t *testing.T) {
			var (
				mu     sync.Mutex
				unfair []string
			)
			srv, desc := dispatchServer(t, func(x uint64, err error) {
				if x != 1 && err != nil { // x: 1 = short budget, 0 = none, 2 = generous
					mu.Lock()
					unfair = append(unfair, fmt.Sprintf("call kind %d canceled: %v", x, err))
					mu.Unlock()
				}
			})
			ctx := srv.Context(1, "vm1")
			w := serveOver(t, srv, ctx, desc, newOrdering())

			var objs []marshal.Value
			for i := 0; i < 4; i++ {
				w.send(w.call("create", 0, 0, marshal.Uint(1), marshal.Len(8)))
				objs = append(objs, w.recv().Outs[0])
			}

			const rounds, plainPerRound = 50, 20 // 1000 undeadlined calls
			for r := 0; r < rounds; r++ {
				kinds := map[uint64]uint64{} // seq -> kind
				var batch [][]byte
				add := func(kind uint64, deadline time.Duration, obj marshal.Value) {
					batch = append(batch, w.call(fn, 0, deadline, obj, marshal.Uint(kind)))
					kinds[w.seq] = kind
				}
				add(1, time.Millisecond, objs[0])
				for i := 0; i < plainPerRound; i++ {
					add(0, 0, objs[1+i%2])
				}
				add(2, time.Minute, objs[3])
				w.send(batch...)
				for range batch {
					rep := w.recv()
					kind, ok := kinds[rep.Seq]
					if !ok {
						t.Fatalf("reply for unknown seq %d", rep.Seq)
					}
					wantStatus := marshal.StatusOK
					if kind == 1 {
						wantStatus = marshal.StatusDeadline
					}
					if rep.Status != wantStatus {
						t.Fatalf("round %d: call kind %d answered %v (%s), want %v", r, kind, rep.Status, rep.Err, wantStatus)
					}
				}
			}
			w.close()
			mu.Lock()
			defer mu.Unlock()
			if len(unfair) > 0 {
				t.Fatalf("%d calls were canceled by a timer that was not theirs, e.g. %s", len(unfair), unfair[0])
			}
			if st := ctx.Stats(); st.DeadlineAborts != rounds {
				t.Fatalf("DeadlineAborts = %d, want %d", st.DeadlineAborts, rounds)
			}
		})
	}
}

// BenchmarkServeVMDispatch measures the serve loop's per-call path over an
// in-process pair: four async calls and one sync call per batch, the shape
// of a guest's flush, with handlers that do nothing. The sync call lives in
// another ordering domain than the async ones, so every batch exercises the
// cross-worker barrier.
func BenchmarkServeVMDispatch(b *testing.B) {
	srv, desc := dispatchServer(b, nil)
	ctx := srv.Context(1, "vm1")
	w := serveOver(b, srv, ctx, desc, newOrdering())
	w.send(w.call("create", 0, 0, marshal.Uint(1), marshal.Len(8)))
	obj := w.recv().Outs[0]
	payload := marshal.BytesVal([]byte("12345678"))
	batch := [][]byte{
		w.call("fill", marshal.FlagAsync, 0, obj, marshal.Uint(8), payload),
		w.call("fill", marshal.FlagAsync, 0, obj, marshal.Uint(8), payload),
		w.call("fill", marshal.FlagAsync, 0, obj, marshal.Uint(8), payload),
		w.call("fill", marshal.FlagAsync, 0, obj, marshal.Uint(8), payload),
		w.call("ping", 0, 0, marshal.Uint(0)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.send(batch...)
		frame, err := w.ep.Recv()
		if err != nil {
			b.Fatal(err)
		}
		framebuf.Put(frame)
	}
	b.StopTimer()
	w.close()
}

package server

import (
	"ava/internal/leaktest"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/marshal"
)

const srvSpec = `
api "srvtest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

st create(uint32_t kind, obj *o) {
  parameter(o) { out; element { allocates; } }
  track(create, o);
}
st destroy(obj o) { track(destroy, o); }
st poke(obj o, uint32_t v) { track(modify, o); }
st setup(uint32_t flags) { track(config); }
st bigAlloc(size_t size) ;
st ping(uint32_t x);
`

func newTestServer(t *testing.T) (*Server, *Context, *cava.Descriptor) {
	t.Helper()
	desc := cava.MustCompile(srvSpec)
	reg := NewRegistry(desc)
	reg.MustRegister("create", func(inv *Invocation) error {
		h := inv.Ctx.Handles.Insert(fmt.Sprintf("obj-kind-%d", inv.Uint(0)))
		inv.SetOutHandle(1, h)
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("destroy", func(inv *Invocation) error {
		inv.Ctx.Handles.Remove(inv.Handle(0))
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("poke", func(inv *Invocation) error { inv.SetStatus(0); return nil })
	reg.MustRegister("setup", func(inv *Invocation) error { inv.SetStatus(0); return nil })
	reg.MustRegister("ping", func(inv *Invocation) error { inv.SetStatus(0); return nil })
	oomLeft := 1
	reg.MustRegister("bigAlloc", func(inv *Invocation) error {
		if oomLeft > 0 {
			oomLeft--
			return fmt.Errorf("alloc %d: %w", inv.Uint(0), ErrDeviceOOM)
		}
		inv.SetStatus(0)
		return nil
	})
	srv := New(reg)
	ctx := srv.Context(7, "vm7")
	return srv, ctx, desc
}

func call(desc *cava.Descriptor, name string, args ...marshal.Value) *marshal.Call {
	fd, ok := desc.Lookup(name)
	if !ok {
		panic(name)
	}
	return &marshal.Call{Seq: 1, Func: fd.ID, Args: args}
}

func TestExecuteUnknownFunction(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, _ := newTestServer(t)
	reply := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: 999})
	if reply.Status != marshal.StatusDenied {
		t.Fatalf("status = %v", reply.Status)
	}
}

func TestExecuteMissingHandler(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void f(uint32_t a);`)
	srv := New(NewRegistry(desc))
	ctx := srv.Context(1, "v")
	reply := srv.Execute(ctx, call(desc, "f", marshal.Uint(1)))
	if reply.Status != marshal.StatusInternal {
		t.Fatalf("status = %v", reply.Status)
	}
}

func TestUnregisteredList(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void f(uint32_t a); void g(uint32_t a);`)
	reg := NewRegistry(desc)
	reg.MustRegister("f", func(inv *Invocation) error { return nil })
	un := reg.Unregistered()
	if len(un) != 1 || un[0] != "g" {
		t.Fatalf("unregistered = %v", un)
	}
}

func TestRegisterErrors(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void f(uint32_t a);`)
	reg := NewRegistry(desc)
	if err := reg.Register("ghost", nil); err == nil {
		t.Fatal("registered unknown function")
	}
	if err := reg.Register("f", func(inv *Invocation) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("f", func(inv *Invocation) error { return nil }); err == nil {
		t.Fatal("double registration allowed")
	}
}

func TestOOMRetryPolicy(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	evictions := 0
	srv.Registry().OnOOM = func(c *Context, fd *cava.FuncDesc) bool {
		evictions++
		return true
	}
	reply := srv.Execute(ctx, call(desc, "bigAlloc", marshal.Uint(1<<20)))
	if reply.Status != marshal.StatusOK {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

func TestOOMWithoutPolicyFails(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	reply := srv.Execute(ctx, call(desc, "bigAlloc", marshal.Uint(1<<20)))
	if reply.Status != marshal.StatusInternal || !strings.Contains(reply.Err, "out of memory") {
		t.Fatalf("reply = %+v", reply)
	}
}

// Rebind is the one function that rebuilds a handle table under guest-held
// values. Overlapping pairs (fresh [1,2] for recorded [2,3]) move in two
// phases, as one simultaneous mapping; a vanished fresh handle or an
// occupied recorded slot undoes everything.
func TestContextRebind(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	a := srv.Execute(ctx, call(desc, "create", marshal.Uint(1), marshal.Len(8))).Outs[0].Handle()
	b := srv.Execute(ctx, call(desc, "create", marshal.Uint(2), marshal.Len(8))).Outs[0].Handle()
	if a != 1 || b != 2 {
		t.Fatalf("fresh handles [%d,%d], want [1,2]", a, b)
	}
	table := func() string {
		out := ""
		ctx.Handles.ForEach(func(h marshal.Handle, obj any) { out += fmt.Sprintf("%d=%v ", h, obj) })
		return out
	}
	before := table()

	if err := ctx.Rebind([]HandlePair{{Fresh: 1, Recorded: 2}, {Fresh: 9, Recorded: 3}}); err == nil {
		t.Fatal("rebinding a vanished fresh handle succeeded")
	}
	ctx.Handles.InsertAt(5, "squatter")
	if err := ctx.Rebind([]HandlePair{{Fresh: 1, Recorded: 3}, {Fresh: 2, Recorded: 5}}); err == nil {
		t.Fatal("rebinding onto an occupied slot succeeded")
	}
	ctx.Handles.Remove(5)
	if got := table(); got != before {
		t.Fatalf("failed rebinds left the table changed:\n got %s\nwant %s", got, before)
	}

	if err := ctx.Rebind([]HandlePair{{Fresh: 1, Recorded: 2}, {Fresh: 2, Recorded: 3}}); err != nil {
		t.Fatal(err)
	}
	if got, want := table(), "2=obj-kind-1 3=obj-kind-2 "; got != want {
		t.Fatalf("table = %q, want %q", got, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	srv.Execute(ctx, call(desc, "ping", marshal.Uint(1)))
	srv.Execute(ctx, &marshal.Call{Seq: 2, Func: 999})
	st := ctx.Stats()
	if st.Calls != 2 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestContextReuseAndDrop(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, _, _ := newTestServer(t)
	a := srv.Context(3, "vm3")
	b := srv.Context(3, "vm3")
	if a != b {
		t.Fatal("context not reused")
	}
	srv.DropContext(3)
	c := srv.Context(3, "vm3")
	if a == c {
		t.Fatal("context not dropped")
	}
}

func TestHandleTableBasics(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ht := NewHandleTable()
	h1 := ht.Insert("a")
	h2 := ht.Insert("b")
	if h1 == h2 || h1 == 0 {
		t.Fatalf("handles %d %d", h1, h2)
	}
	if v, ok := ht.Get(h1); !ok || v != "a" {
		t.Fatalf("get = %v %t", v, ok)
	}
	if ht.Len() != 2 {
		t.Fatalf("len = %d", ht.Len())
	}
	if v, ok := ht.Remove(h1); !ok || v != "a" {
		t.Fatalf("remove = %v %t", v, ok)
	}
	if _, ok := ht.Get(h1); ok {
		t.Fatal("removed handle resolvable")
	}
	if _, ok := ht.Remove(h1); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestHandleTableInsertAt(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ht := NewHandleTable()
	if err := ht.InsertAt(42, "x"); err != nil {
		t.Fatal(err)
	}
	if err := ht.InsertAt(42, "y"); err == nil {
		t.Fatal("duplicate InsertAt succeeded")
	}
	// Fresh inserts must not collide with forced handles.
	h := ht.Insert("z")
	if h <= 42 {
		t.Fatalf("Insert returned %d after InsertAt(42)", h)
	}
}

func TestHandleTableOrdering(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	ht := NewHandleTable()
	for i := 0; i < 10; i++ {
		ht.Insert(i)
	}
	hs := ht.Handles()
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			t.Fatal("handles not sorted")
		}
	}
	var visited []any
	ht.ForEach(func(h marshal.Handle, obj any) { visited = append(visited, obj) })
	if len(visited) != 10 || visited[0] != 0 || visited[9] != 9 {
		t.Fatalf("visited = %v", visited)
	}
}

// Property: handles are never reused while live, and Get is consistent
// with Insert/Remove history.
func TestQuickHandleTable(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := func(ops []uint8) bool {
		ht := NewHandleTable()
		live := map[marshal.Handle]int{}
		n := 0
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				for h := range live {
					ht.Remove(h)
					delete(live, h)
					break
				}
				continue
			}
			h := ht.Insert(n)
			if _, dup := live[h]; dup {
				return false
			}
			live[h] = n
			n++
		}
		if ht.Len() != len(live) {
			return false
		}
		for h, v := range live {
			got, ok := ht.Get(h)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredErrorOnce(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, _ := newTestServer(t)
	// Two failing async calls: only the first failure is kept.
	for _, fn := range []uint32{998, 999} {
		if rep := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: fn, Flags: marshal.FlagAsync}); rep != nil {
			t.Fatalf("async call got a reply: %+v", rep)
		}
	}
	if d := ctx.DeferredError(); d != "async func#998: unknown function #998" {
		t.Fatalf("deferred = %q", d)
	}
	if d := ctx.DeferredError(); d != "" {
		t.Fatalf("deferred not cleared: %q", d)
	}
}

func TestIsFailureRetDetection(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, _, desc := newTestServer(t)
	fd, _ := desc.Lookup("ping")
	if srv.isFailureRet(fd.ID, marshal.Int(0)) {
		t.Fatal("success flagged as failure")
	}
	if !srv.isFailureRet(fd.ID, marshal.Int(-5)) {
		t.Fatal("failure not flagged")
	}
	if srv.isFailureRet(999, marshal.Int(-5)) {
		t.Fatal("unknown function flagged")
	}
}

func TestExecuteFrameMalformed(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, _ := newTestServer(t)
	if _, err := srv.ExecuteFrame(ctx, []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed frame executed")
	}
}

func TestVerifyScalarKinds(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	// String where a uint32 is expected.
	reply := srv.Execute(ctx, call(desc, "ping", marshal.Str("hi")))
	if reply.Status != marshal.StatusDenied {
		t.Fatalf("status = %v", reply.Status)
	}
	// Wrong arity.
	reply = srv.Execute(ctx, call(desc, "ping"))
	if reply.Status != marshal.StatusDenied {
		t.Fatalf("status = %v", reply.Status)
	}
}

func TestInvocationAccessors(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`
		handle h;
		void f(h a, int32_t b, uint32_t c, double d, bool e, string s, const void *buf, size_t buf_size) {
			parameter(buf) { in; buffer(buf_size); }
		}
	`)
	fd, _ := desc.Lookup("f")
	inv := &Invocation{}
	inv.reset(fd, nil)
	err := inv.prepare(desc, []marshal.Value{
		marshal.HandleVal(5), marshal.Int(-3), marshal.Uint(9), marshal.Float(2.5),
		marshal.Bool(true), marshal.Str("name"), marshal.BytesVal([]byte{1, 2}), marshal.Uint(2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Handle(0) != 5 || inv.Int(1) != -3 || inv.Uint(2) != 9 ||
		inv.Float(3) != 2.5 || !inv.Bool(4) || inv.Str(5) != "name" ||
		len(inv.Bytes(6)) != 2 || inv.NumArgs() != 8 {
		t.Fatal("accessor mismatch")
	}
	if inv.IsNull(0) {
		t.Fatal("non-null reported null")
	}
	if inv.Env()["buf_size"] != 2 {
		t.Fatalf("env = %v", inv.Env())
	}
	// Cross-kind coercions.
	if inv.Uint(1) != uint64(0xFFFFFFFFFFFFFFFD) || inv.Int(2) != 9 {
		t.Fatal("coercion mismatch")
	}
	if inv.Float(1) != -3 || inv.Float(2) != 9 {
		t.Fatal("float coercion mismatch")
	}
	if !inv.Bool(2) || inv.Uint(4) != 1 || inv.Int(4) != 1 {
		t.Fatal("bool coercion mismatch")
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(`void boom(uint32_t x); void ok(uint32_t x);`)
	reg := NewRegistry(desc)
	reg.MustRegister("boom", func(inv *Invocation) error { panic("silo bug") })
	reg.MustRegister("ok", func(inv *Invocation) error { return nil })
	srv := New(reg)
	ctx := srv.Context(1, "v")
	rep := srv.Execute(ctx, call(desc, "boom", marshal.Uint(1)))
	if rep.Status != marshal.StatusInternal || !strings.Contains(rep.Err, "panic") {
		t.Fatalf("reply = %+v", rep)
	}
	// The server survives and keeps executing for this and other calls.
	rep = srv.Execute(ctx, call(desc, "ok", marshal.Uint(1)))
	if rep.Status != marshal.StatusOK {
		t.Fatalf("server did not survive handler panic: %+v", rep)
	}
}

// --- Deadlines & cancellation ---

// deadlineServer registers a "slow" handler that blocks on the cancellation
// signal until released, plus the usual ping.
func deadlineServer(t *testing.T, clk *clock.Virtual) (*Server, *Context, *cava.Descriptor, chan struct{}) {
	t.Helper()
	desc := cava.MustCompile(`
api "dl";
const OK = 0;
type st = int32_t { success(OK); };
st ping(uint32_t x);
st slow(uint32_t x);
`)
	reg := NewRegistry(desc)
	reg.MustRegister("ping", func(inv *Invocation) error { inv.SetStatus(0); return nil })
	release := make(chan struct{})
	reg.MustRegister("slow", func(inv *Invocation) error {
		// The cooperative-abort pattern: work "on the device" while
		// watching the cancellation signal.
		select {
		case <-inv.Done():
			return inv.Err()
		case <-release:
			inv.SetStatus(0)
			return nil
		}
	})
	srv := New(reg)
	ctx := srv.Context(7, "vm7")
	ctx.SetClock(clk)
	return srv, ctx, desc, release
}

func TestDispatchDeniesExpiredDeadline(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	srv, ctx, desc, _ := deadlineServer(t, clk)
	c := call(desc, "ping", marshal.Uint(1))
	// Budget already spent relative to the admit stamp.
	c.Stamps.Admit = 5_000
	c.Deadline = 4_000
	reply := srv.Execute(ctx, c)
	if reply.Status != marshal.StatusDeadline {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
	if !errors.Is(reply.Status.Sentinel(), ErrDeadlineExceeded) {
		t.Fatal("status does not map to ErrDeadlineExceeded")
	}
	st := ctx.Stats()
	if st.DeadlineAborts != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInFlightCallAbortsOnDeadline(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	srv, ctx, desc, _ := deadlineServer(t, clk)
	c := call(desc, "slow", marshal.Uint(1))
	c.Stamps.Admit = clk.Now().UnixNano()
	c.Deadline = c.Stamps.Admit + (50 * time.Millisecond).Nanoseconds()

	done := make(chan *marshal.Reply, 1)
	go func() { done <- srv.Execute(ctx, c) }()
	// The handler is parked on inv.Done(); advancing past the deadline
	// fires the cancellation timer and unblocks it.
	for ctx.Stats().Calls == 0 && len(done) == 0 {
		time.Sleep(time.Millisecond)
		clk.Advance(10 * time.Millisecond)
		if clk.Since(time.Unix(1_000_000_000, 0)) > time.Second {
			break
		}
	}
	reply := <-done
	if reply.Status != marshal.StatusDeadline {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
	st := ctx.Stats()
	if st.DeadlineAborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if reply.Stamps.Dispatch == 0 || reply.Stamps.Done == 0 {
		t.Fatalf("abort reply missing stamps: %+v", reply.Stamps)
	}
}

func TestSlowCallCompletesWithinDeadline(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	srv, ctx, desc, release := deadlineServer(t, clk)
	c := call(desc, "slow", marshal.Uint(1))
	c.Stamps.Admit = clk.Now().UnixNano()
	c.Deadline = c.Stamps.Admit + time.Second.Nanoseconds()
	done := make(chan *marshal.Reply, 1)
	go func() { done <- srv.Execute(ctx, c) }()
	close(release)
	reply := <-done
	if reply.Status != marshal.StatusOK {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
	if ctx.Stats().DeadlineAborts != 0 {
		t.Fatal("completed call counted as abort")
	}
}

func TestIgnoredDeadlineStillAborts(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// A handler that never looks at inv.Done() but finishes after expiry:
	// the reply is already late, so the dispatcher converts it.
	clk := clock.NewVirtual()
	desc := cava.MustCompile(`
const OK = 0;
type st = int32_t { success(OK); };
st busy(uint32_t x);
`)
	reg := NewRegistry(desc)
	reg.MustRegister("busy", func(inv *Invocation) error {
		clk.Advance(200 * time.Millisecond) // device work overruns
		inv.SetStatus(0)
		return nil
	})
	srv := New(reg)
	ctx := srv.Context(1, "vm1")
	ctx.SetClock(clk)
	c := call(desc, "busy", marshal.Uint(1))
	c.Stamps.Admit = clk.Now().UnixNano()
	c.Deadline = c.Stamps.Admit + (50 * time.Millisecond).Nanoseconds()
	reply := srv.Execute(ctx, c)
	if reply.Status != marshal.StatusDeadline {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
}

func TestExplicitCancel(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	desc := cava.MustCompile(`
const OK = 0;
type st = int32_t { success(OK); };
st job(uint32_t x);
`)
	reg := NewRegistry(desc)
	reg.MustRegister("job", func(inv *Invocation) error {
		inv.Cancel()
		<-inv.Done()
		return fmt.Errorf("job %d: %w", inv.Uint(0), inv.Err())
	})
	srv := New(reg)
	ctx := srv.Context(1, "vm1")
	ctx.SetClock(clk)
	c := call(desc, "job", marshal.Uint(3))
	c.Deadline = clk.Now().Add(time.Second).UnixNano()
	c.Stamps.Encode = clk.Now().UnixNano()
	reply := srv.Execute(ctx, c)
	if reply.Status != marshal.StatusCanceled {
		t.Fatalf("status = %v (%s)", reply.Status, reply.Err)
	}
	if !errors.Is(reply.Status.Sentinel(), ErrCanceled) {
		t.Fatal("status does not map to ErrCanceled")
	}
	if ctx.Stats().CanceledCalls != 1 {
		t.Fatalf("stats = %+v", ctx.Stats())
	}
}

func TestReplyStampsFeedBreakdown(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	srv, ctx, desc, _ := deadlineServer(t, clk)
	c := call(desc, "ping", marshal.Uint(1))
	c.Stamps.Encode = 100
	c.Stamps.Admit = clk.Now().Add(-2 * time.Millisecond).UnixNano()
	reply := srv.Execute(ctx, c)
	if reply.Status != marshal.StatusOK {
		t.Fatalf("status = %v", reply.Status)
	}
	if reply.Stamps.Encode != 100 || reply.Stamps.Admit != c.Stamps.Admit {
		t.Fatalf("upstream stamps clobbered: %+v", reply.Stamps)
	}
	if reply.Stamps.Dispatch != clk.Now().UnixNano() || reply.Stamps.Done != clk.Now().UnixNano() {
		t.Fatalf("server stamps = %+v", reply.Stamps)
	}
	if got := ctx.Stats().AdmitToDispatch; got != 2*time.Millisecond {
		t.Fatalf("AdmitToDispatch = %v", got)
	}
}

func TestInvocationDeadlineAccessor(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	clk := clock.NewVirtual()
	desc := cava.MustCompile(`
const OK = 0;
type st = int32_t { success(OK); };
st peek(uint32_t x);
`)
	reg := NewRegistry(desc)
	var got time.Time
	var ok bool
	reg.MustRegister("peek", func(inv *Invocation) error {
		got, ok = inv.Deadline()
		inv.SetStatus(0)
		return nil
	})
	srv := New(reg)
	ctx := srv.Context(1, "vm1")
	ctx.SetClock(clk)
	c := call(desc, "peek", marshal.Uint(0))
	if reply := srv.Execute(ctx, c); reply.Status != marshal.StatusOK {
		t.Fatal(reply.Err)
	}
	if ok {
		t.Fatal("deadline reported for deadline-free call")
	}
	c2 := call(desc, "peek", marshal.Uint(0))
	c2.Stamps.Admit = clk.Now().UnixNano()
	c2.Deadline = c2.Stamps.Admit + time.Second.Nanoseconds()
	if reply := srv.Execute(ctx, c2); reply.Status != marshal.StatusOK {
		t.Fatal(reply.Err)
	}
	if !ok || !got.Equal(clk.Now().Add(time.Second)) {
		t.Fatalf("deadline = %v ok=%v", got, ok)
	}
}

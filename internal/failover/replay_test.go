package failover

import (
	"fmt"
	"reflect"
	"testing"

	"ava/internal/cava"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/server"
	"ava/internal/transport"
)

// replaySpec is a toy accelerator whose createPair hands back two handles
// in one reply — the shape (clGetDeviceIDs, a context plus its queue) that
// makes one reply's rebind pairs overlap.
const replaySpec = `
api "replaytest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };
st create(uint32_t kind, obj *o) {
  parameter(o) { out; element { allocates; } }
  track(create, o);
}
st createPair(uint32_t kind, obj *a, obj *b) {
  parameter(a) { out; element { allocates; } }
  parameter(b) { out; element { allocates; } }
  track(create, a);
}
st label(obj o, uint32_t v) { track(modify, o); }
st destroy(obj o) { track(destroy, o); }
`

// replayObj is the toy's device object: label is rebuilt by replaying the
// tracked modify, data only by restoring a checkpoint. dirty is its delta
// tracking: set, the next capture ships data in full.
type replayObj struct {
	kind, label uint64
	data        []byte
	dirty       bool
}

type replayAdapter struct{}

// SnapshotObject is all-or-nothing like mvnc's: a dirty object, or any
// object when full, ships as one Full delta, a clean one as an empty delta
// onto a base of its length.
func (replayAdapter) SnapshotObject(obj any, full bool) (marshal.ObjectDelta, bool, error) {
	o := obj.(*replayObj)
	if !o.dirty && !full {
		return marshal.ObjectDelta{BaseLen: uint64(len(o.data))}, true, nil
	}
	o.dirty = false
	return marshal.FullDelta(0, append([]byte(nil), o.data...)), true, nil
}

func (replayAdapter) RestoreObject(obj any, state []byte) error {
	obj.(*replayObj).data = append([]byte(nil), state...)
	return nil
}

func newReplayServer() (*server.Server, *cava.Descriptor) {
	return newReplayServerWith(replayAdapter{})
}

func newReplayServerWith(ad server.Adapter) (*server.Server, *cava.Descriptor) {
	desc := cava.MustCompile(replaySpec)
	reg := server.NewRegistry(desc)
	reg.Adapter = ad
	reg.MustRegister("create", func(inv *server.Invocation) error {
		inv.SetOutHandle(1, inv.Ctx.Handles.Insert(&replayObj{kind: inv.Uint(0)}))
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("createPair", func(inv *server.Invocation) error {
		inv.SetOutHandle(1, inv.Ctx.Handles.Insert(&replayObj{kind: inv.Uint(0)}))
		inv.SetOutHandle(2, inv.Ctx.Handles.Insert(&replayObj{kind: inv.Uint(0) + 1}))
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("label", func(inv *server.Invocation) error {
		obj, ok := inv.Ctx.Handles.Get(inv.Handle(0))
		if !ok {
			return fmt.Errorf("label: unknown handle %d", inv.Handle(0))
		}
		obj.(*replayObj).label = inv.Uint(1)
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("destroy", func(inv *server.Invocation) error {
		inv.Ctx.Handles.Remove(inv.Handle(0))
		inv.SetStatus(0)
		return nil
	})
	return server.New(reg), desc
}

// recordOverlappingLog runs the first life through a guardian, whose shadow
// log records it: three objects, a fourth that is destroyed again (pruning
// its create from the log), then a pair under handles [5,6]. Replayed onto
// a fresh table the pair comes back as [4,5] — the fresh 5 is the recorded
// handle of the pair's other half.
func recordOverlappingLog(t *testing.T) ([]migrate.RecordedCall, map[marshal.Handle][]byte) {
	t.Helper()
	srv, desc := newReplayServer()
	g, router := guardServer(t, srv, srv.Context(1, "first-life"), desc, Config{})
	seq := uint64(0)
	do := func(name string, args ...marshal.Value) *marshal.Reply {
		t.Helper()
		seq++
		sendCall(t, router, &marshal.Call{Seq: seq, Func: logFunc(desc, name), Args: args})
		rep := recvReply(t, router)
		if rep.Status != marshal.StatusOK {
			t.Fatalf("%s: %s", name, rep.Err)
		}
		return rep
	}
	for kind := uint64(1); kind <= 4; kind++ {
		do("create", marshal.Uint(kind), marshal.Len(8))
	}
	do("destroy", marshal.HandleVal(4))
	pair := do("createPair", marshal.Uint(50), marshal.Len(8), marshal.Len(8))
	if a, b := pair.Outs[0].Handle(), pair.Outs[1].Handle(); a != 5 || b != 6 {
		t.Fatalf("first life created the pair under [%d,%d], want [5,6]", a, b)
	}
	do("label", marshal.HandleVal(5), marshal.Uint(55))
	do("label", marshal.HandleVal(6), marshal.Uint(66))
	objects := map[marshal.Handle][]byte{
		2: []byte("two"), 5: []byte("five"), 6: []byte("six"),
		4: []byte("destroyed after the checkpoint"),
	}
	return shadowReplayLog(g), objects
}

// tableOf renders a context's handle table for comparison: handle → object
// contents.
func tableOf(ctx *server.Context) map[marshal.Handle]replayObj {
	out := make(map[marshal.Handle]replayObj)
	ctx.Handles.ForEach(func(h marshal.Handle, obj any) { out[h] = *obj.(*replayObj) })
	return out
}

// replayTarget builds a fresh server and returns the guardian's target for
// it plus the context it fills: a ServeVM loop over an in-proc link a
// guardian has adopted, exactly as the guardian's replay and capture reach
// any server.
func replayTarget(t *testing.T, ad server.Adapter) (wireTarget, *server.Context) {
	srv, desc := newReplayServerWith(ad)
	ctx := srv.Context(1, "second-life")
	south, serverEP := transport.NewInProc()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeVM(ctx, serverEP)
	}()
	t.Cleanup(func() {
		south.Close()
		serverEP.Close()
		<-served
	})
	g := New(desc, nil, Config{})
	t.Cleanup(g.Close)
	tgt, _ := g.adopt(south)
	return tgt, ctx
}

// One recorded log through the one replay engine: the handle table and
// object bytes it leaves behind must equal what the guest holds. The log's
// pair comes back under fresh [4,5] for recorded [5,6]; a pair-by-pair
// rebind (before FuncRebind carried every pair of a reply) fails on it with
// "handle 5 already bound". The state checkpointed for 4, destroyed since,
// is skipped.
func TestReplayOverTheLink(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	log, objects := recordOverlappingLog(t)
	want := map[marshal.Handle]replayObj{
		1: {kind: 1}, 2: {kind: 2, data: []byte("two")}, 3: {kind: 3},
		5: {kind: 50, label: 55, data: []byte("five")},
		6: {kind: 51, label: 66, data: []byte("six")},
	}
	target, ctx := replayTarget(t, replayAdapter{})
	if err := migrate.Replay(target, cava.MustCompile(replaySpec), log, objects); err != nil {
		t.Fatal(err)
	}
	if got := tableOf(ctx); !reflect.DeepEqual(got, want) {
		t.Errorf("handle table\n got %+v\nwant %+v", got, want)
	}
}

// The capture and restore halves over the link: every row runs on a
// context holding a clean object (1) and a dirty one (2). The capture rows
// are the one base rule (captureOnto): no base asks for full state at
// once, and an object that comes back as a non-Full delta with no entry in
// the base makes the capture ask again, for full state.
func TestCaptureAndRestoreOverTheLink(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	type result struct {
		Objects map[marshal.Handle][]byte
		Deltas  []byte // EncodeObjectDeltas form: nil and empty range lists compare equal
		Delta   bool
		Found   bool
		Err     bool
		Data    string // object 1's data afterwards
	}
	clean := marshal.ObjectDelta{Handle: 1, BaseLen: 3}
	full1, full2 := marshal.FullDelta(1, []byte("one")), marshal.FullDelta(2, []byte("two"))
	full := map[marshal.Handle][]byte{1: []byte("one"), 2: []byte("two")}
	capture := func(base map[marshal.Handle][]byte) func(wireTarget) (result, error) {
		return func(tgt wireTarget) (result, error) {
			c, err := captureOnto(tgt, base)
			defer c.release()
			return result{Objects: c.objects, Deltas: marshal.EncodeObjectDeltas(c.deltas), Delta: c.delta}, err
		}
	}
	restore := func(h marshal.Handle) func(wireTarget) (result, error) {
		return func(tgt wireTarget) (result, error) {
			found, err := tgt.RestoreObject(h, []byte("restored"))
			return result{Found: found && err == nil, Err: err != nil}, nil
		}
	}
	rows := []struct {
		name      string
		noAdapter bool
		run       func(wireTarget) (result, error)
		want      result
	}{
		{name: "delta onto a base holding every object",
			run: capture(map[marshal.Handle][]byte{1: []byte("one"), 2: []byte("old")}),
			want: result{Objects: full, Delta: true,
				Deltas: marshal.EncodeObjectDeltas([]marshal.ObjectDelta{clean, full2})}},
		{name: "delta with no base entry for the clean object",
			run: capture(map[marshal.Handle][]byte{2: []byte("old")}),
			want: result{Objects: full,
				Deltas: marshal.EncodeObjectDeltas([]marshal.ObjectDelta{full1, full2})}},
		{name: "full state when there is no base", run: capture(nil),
			want: result{Objects: full, Deltas: marshal.EncodeObjectDeltas([]marshal.ObjectDelta{full1, full2})}},
		{name: "restore a live handle", run: restore(1), want: result{Found: true, Data: "restored"}},
		{name: "restore a vanished handle", run: restore(9), want: result{}},
		{name: "snapshot without an adapter", noAdapter: true, run: capture(nil), // no object state: the empty set is exact
			want: result{Objects: map[marshal.Handle][]byte{}, Deltas: marshal.EncodeObjectDeltas(nil)}},
		{name: "restore without an adapter", noAdapter: true, run: restore(1),
			want: result{Err: true}},
	}
	for _, row := range rows {
		var ad server.Adapter = replayAdapter{}
		if row.noAdapter {
			ad = nil
		}
		tgt, ctx := replayTarget(t, ad)
		one := &replayObj{data: []byte("one")}
		ctx.Handles.Insert(one)
		ctx.Handles.Insert(&replayObj{data: []byte("two"), dirty: true})
		got, err := row.run(tgt)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		want := row.want
		if want.Data == "" {
			want.Data = "one"
		}
		got.Data = string(one.data)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, want)
		}
	}
}

// FuncRebind validates its argument vector before touching the table.
func TestWireRebindRejectsMalformedPairs(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, _ := newReplayServer()
	ctx := srv.Context(1, "vm")
	h := ctx.Handles.Insert(&replayObj{})
	for _, args := range [][]marshal.Value{
		nil,
		{marshal.HandleVal(h)},
		{marshal.HandleVal(h), marshal.HandleVal(9), marshal.HandleVal(h)},
		{marshal.HandleVal(h), marshal.Uint(9)},
	} {
		rep := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: marshal.FuncRebind, Args: args})
		if rep.Status != marshal.StatusDenied {
			t.Errorf("args %v: status %v, want denied", args, rep.Status)
		}
	}
	if _, ok := ctx.Handles.Get(h); !ok {
		t.Fatal("a rejected rebind moved the object")
	}
}

// FuncSnapshot validates its one argument before asking the silo: a
// capture moves the objects' dirty watermarks, so a malformed request must
// leave them where they were.
func TestWireSnapshotRejectsMalformedArgs(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, _ := newReplayServer()
	ctx := srv.Context(1, "vm")
	obj := &replayObj{data: []byte("dirty"), dirty: true}
	ctx.Handles.Insert(obj)
	for name, args := range map[string][]marshal.Value{
		"no argument":          nil,
		"non-integer argument": {marshal.BytesVal([]byte{1})},
		"extra argument":       {marshal.Int(0), marshal.Int(1)},
	} {
		rep := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: marshal.FuncSnapshot, Args: args})
		if rep.Status == marshal.StatusOK {
			t.Errorf("%s: status OK", name)
		}
	}
	if !obj.dirty {
		t.Fatal("a rejected snapshot drained the object's dirty tracking")
	}
}

package failover

import (
	"bytes"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/framebuf"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/qat"
	"ava/internal/server"
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
	south, srv := transport.NewInProc()
	g := New(desc, func() (transport.Endpoint, error) { return south, nil }, Config{Clock: clk})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	router := g.Endpoint()
	defer func() {
		g.Close()
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
	south, srv := transport.NewInProc()
	g := New(desc, func() (transport.Endpoint, error) { return south, nil },
		Config{Clock: clock.NewVirtual(), CheckpointEvery: 1})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	router := g.Endpoint()
	defer func() {
		g.Close()
		srv.Close()
	}()
	call := func(seq uint64, snapshot marshal.Reply) {
		t.Helper()
		// The Send cuts the due checkpoint before it returns.
		sent := goSendCall(router, &marshal.Call{Seq: seq, Func: logFunc(desc, "f"), Args: []marshal.Value{marshal.Uint(1)}})
		recvCall(t, srv)
		if err := srv.Send(marshal.EncodeReply(&marshal.Reply{Seq: seq})); err != nil {
			t.Fatal(err)
		}
		if rep := recvReply(t, router); rep.Seq != seq {
			t.Fatalf("reply north has seq %d, want %d", rep.Seq, seq)
		}
		answerCheckpointWith(t, srv, snapshot)
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
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

	call(2, marshal.Reply{Ret: marshal.BytesVal(marshal.EncodeObjectDeltas(nil))})
	if _, _, w, ok := marshal.DecodeControl(recvReply(t, router)); !ok || w != 2 {
		t.Fatalf("checkpoint notice: watermark %d, ok %v", w, ok)
	}
	if st := g.Stats(); st.Checkpoints != 1 || st.FailedCheckpoints != 1 {
		t.Fatalf("after the good checkpoint: %+v", st)
	}
}

// rangeObj is a device buffer with byte-range dirty tracking, the shape of
// cl's buffers: a checkpoint ships the ranges written since the previous
// one.
type rangeObj struct {
	data  []byte
	dirty []marshal.DeltaRange // written since the last capture; Bytes alias data
}

func (o *rangeObj) write(off int, b []byte) {
	copy(o.data[off:], b)
	o.dirty = append(o.dirty, marshal.DeltaRange{Off: uint64(off), Bytes: o.data[off : off+len(b)]})
}

type rangeAdapter struct{}

// SnapshotObject copies each dirty range out, or the whole buffer when
// full, as a silo must: the device keeps running after the capture.
func (rangeAdapter) SnapshotObject(obj any, full bool) (marshal.ObjectDelta, bool, error) {
	o := obj.(*rangeObj)
	var d marshal.ObjectDelta
	if full {
		d = marshal.FullDelta(0, append([]byte(nil), o.data...))
	} else {
		d.BaseLen = uint64(len(o.data))
		for _, r := range o.dirty {
			d.Ranges = append(d.Ranges, marshal.DeltaRange{Off: r.Off, Bytes: append([]byte(nil), r.Bytes...)})
		}
	}
	o.dirty = o.dirty[:0]
	return d, true, nil
}

func (rangeAdapter) RestoreObject(obj any, state []byte) error {
	copy(obj.(*rangeObj).data, state)
	return nil
}

// guardRangeObject puts a guardian with sink in front of a ServeVM loop
// whose context holds obj, over an in-process link.
func guardRangeObject(t *testing.T, obj *rangeObj, sink LogSink) *Guardian {
	t.Helper()
	srv, desc := newReplayServerWith(rangeAdapter{})
	ctx := srv.Context(1, "vm")
	ctx.Handles.Insert(obj)
	g, _ := guardServer(t, srv, ctx, desc, Config{Sink: sink})
	return g
}

// scribbler is a sink that, before composing, draws every payload-class
// pooled buffer the way any layer may at that moment and overwrites it. A
// checkpoint that put its control-reply frame back before the sink read the
// ranges aliasing it hands the sink garbage.
type scribbler struct{ *MemoryMirror }

func (s scribbler) MirrorCheckpoint(epoch uint32, w uint64, deltas []marshal.ObjectDelta) bool {
	var held [][]byte
	for n := 16 << 10; n <= 256<<10; n += 1 << (bits.Len(uint(n)) - 3) { // every class
		b := framebuf.GetLen(n)
		for i := range b {
			b[i] = 0xee
		}
		held = append(held, b)
	}
	for _, b := range held {
		framebuf.Put(b)
	}
	return s.MemoryMirror.MirrorCheckpoint(epoch, w, deltas)
}

// A delta checkpoint's ranges alias the control reply that carried them, so
// the frame may go back to the pool only after the commit transition has
// handed them to the sink. Two delta checkpoints in a row, with
// different dirty ranges large enough for a payload-class frame: after each,
// the mirror holds exactly the guardian's checkpoint and the device's bytes.
func TestRecycledControlReplyNeverCorruptsMirror(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const size, dirty = 64 << 10, 20 << 10
	obj := &rangeObj{data: make([]byte, size)}
	mirror := NewMemoryMirror()
	g := guardRangeObject(t, obj, scribbler{mirror})
	page := make([]byte, dirty)
	for i, off := range []int{-1, 0, 40 << 10} { // a full checkpoint first: the base
		if off >= 0 {
			for j := range page {
				page[j] = byte(i*7 + j)
			}
			obj.write(off, page)
		}
		if err := g.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		g.mu.Lock()
		ckpt := g.ckptObjects
		g.mu.Unlock()
		got := mirror.State().Objects
		if !reflect.DeepEqual(got, ckpt) || !bytes.Equal(ckpt[1], obj.data) {
			t.Fatalf("checkpoint %d: mirror and guardian checkpoint disagree with the device", i)
		}
	}
	if st := g.Stats(); st.DeltaCheckpoints != 2 || st.LastCkptBytes != dirty {
		t.Fatalf("stats %+v: want 2 delta checkpoints, the last shipping %d bytes", st, dirty)
	}
}

// funcRecorder is a server's end of a link that notes the function of every
// call it receives, and the full flag of every FuncSnapshot.
type funcRecorder struct {
	transport.Endpoint
	mu    sync.Mutex
	funcs []uint32
	fulls []bool
}

func (r *funcRecorder) Recv() ([]byte, error) {
	frame, err := r.Endpoint.Recv()
	if err == nil {
		calls, _ := marshal.DecodeBatch(frame)
		r.mu.Lock()
		for _, b := range calls {
			if c, derr := marshal.DecodeCall(b); derr == nil {
				r.funcs = append(r.funcs, c.Func)
				if c.Func == marshal.FuncSnapshot {
					r.fulls = append(r.fulls, len(c.Args) == 1 && c.Args[0].Int() != 0)
				}
			}
		}
		r.mu.Unlock()
	}
	return frame, err
}

func (r *funcRecorder) seen() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.funcs)
}

// snapshots is the full flag of every FuncSnapshot received, in order.
func (r *funcRecorder) snapshots() []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.fulls)
}

// A registry without an Adapter declares no object state, so the empty set
// is its exact capture: a checkpoint of its server is the quiesce marker
// and one FuncSnapshot — for full state the first time, when the guardian
// holds no base, and after that a delta composed onto the previous
// checkpoint and counted as one. QAT's registry is one.
func TestStatelessRegistryCheckpointsByDelta(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := qat.Descriptor()
	reg := server.NewRegistry(desc)
	qat.BindServer(reg, qat.NewSilo(1))
	if reg.Adapter != nil {
		t.Fatalf("the QAT registry carries object-state adapter %T, but replay rebuilds every QAT object", reg.Adapter)
	}
	srv := server.New(reg)
	south, serverEP := transport.NewInProc()
	rec := &funcRecorder{Endpoint: serverEP}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeVM(srv.Context(1, "vm"), rec)
	}()
	g := New(desc, func() (transport.Endpoint, error) { return south, nil }, Config{})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	router := g.Endpoint()
	defer func() {
		g.Close()
		serverEP.Close()
		<-served
	}()
	start := marshal.Call{Seq: 1, Func: logFunc(desc, "qatStartInstance"), Args: []marshal.Value{marshal.Uint(0), marshal.Null()}}
	sendCall(t, router, &start)
	if rep := recvReply(t, router); rep.Status != marshal.StatusOK || rep.Ret.Int() != 0 {
		t.Fatalf("qatStartInstance: %+v", rep)
	}
	for i := 1; i <= 2; i++ { // the first has no base to compose onto
		before := len(rec.seen())
		if err := g.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if ctl := rec.seen()[before:]; !slices.Equal(ctl, []uint32{markerFunc, marshal.FuncSnapshot}) {
			t.Fatalf("checkpoint %d sent control calls %#x, want the marker and one FuncSnapshot", i, ctl)
		}
	}
	if got := rec.snapshots(); !slices.Equal(got, []bool{true, false}) {
		t.Fatalf("snapshot full flags %v, want [true false]", got)
	}
	if st := g.Stats(); st.Checkpoints != 2 || st.DeltaCheckpoints != 1 {
		t.Fatalf("stats %+v: want two checkpoints, the second taken as a delta", st)
	}
}

// incarnations serves VM 1 of a replay-spec server behind a guardian, a
// fresh incarnation of the VM on every dial, and records each link's
// control calls.
type incarnations struct {
	srv    *server.Server
	desc   *cava.Descriptor
	g      *Guardian
	router transport.Endpoint

	mu   sync.Mutex
	recs []*funcRecorder
	ctxs []*server.Context
}

func guardIncarnations(t *testing.T, cfg Config) *incarnations {
	t.Helper()
	inc := &incarnations{}
	inc.srv, inc.desc = newReplayServer()
	var served []chan struct{}
	var serverEPs []transport.Endpoint
	dial := func() (transport.Endpoint, error) {
		inc.srv.DropContext(1) // every incarnation starts clean
		south, serverEP := transport.NewInProc()
		ctx := inc.srv.Context(1, "vm")
		rec := &funcRecorder{Endpoint: serverEP}
		done := make(chan struct{})
		go func() {
			defer close(done)
			inc.srv.ServeVM(ctx, rec)
		}()
		inc.mu.Lock()
		inc.recs, inc.ctxs = append(inc.recs, rec), append(inc.ctxs, ctx)
		inc.mu.Unlock()
		served, serverEPs = append(served, done), append(serverEPs, serverEP)
		return south, nil
	}
	inc.g = New(inc.desc, dial, cfg)
	if err := inc.g.Start(); err != nil {
		t.Fatal(err)
	}
	inc.router = inc.g.Endpoint()
	t.Cleanup(func() {
		inc.g.Close()
		for i, ep := range serverEPs {
			ep.Close()
			<-served[i]
		}
	})
	return inc
}

// current is the serving incarnation's link recorder and context.
func (inc *incarnations) current() (*funcRecorder, *server.Context) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.recs[len(inc.recs)-1], inc.ctxs[len(inc.ctxs)-1]
}

// create has the guest create an object holding data, returning its
// handle.
func (inc *incarnations) create(t *testing.T, seq uint64, data string) marshal.Handle {
	t.Helper()
	sendCall(t, inc.router, &marshal.Call{Seq: seq, Func: logFunc(inc.desc, "create"),
		Args: []marshal.Value{marshal.Uint(seq), marshal.Len(8)}})
	for {
		rep := recvReply(t, inc.router)
		if rep.Seq >= marshal.CtrlSeqBase {
			continue // a notice of an earlier checkpoint
		}
		if rep.Seq != seq || rep.Status != marshal.StatusOK {
			t.Fatalf("create: %+v", rep)
		}
		h := rep.Outs[0].Handle()
		inc.object(t, h).data = []byte(data)
		return h
	}
}

// object is the serving incarnation's object under h.
func (inc *incarnations) object(t *testing.T, h marshal.Handle) *replayObj {
	t.Helper()
	_, ctx := inc.current()
	obj, ok := ctx.Handles.Get(h)
	if !ok {
		t.Fatalf("no object under handle %d", h)
	}
	return obj.(*replayObj)
}

// killAndRecover severs the serving link and waits for the guardian to
// rebuild the VM on a fresh incarnation.
func (inc *incarnations) killAndRecover(t *testing.T) {
	t.Helper()
	want := inc.g.Stats().Recoveries + 1
	inc.g.KillServer()
	for deadline := time.Now().Add(5 * time.Second); inc.g.Stats().Recoveries < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery: stats %+v", inc.g.Stats())
		}
	}
}

// checkpointSnapshots cuts a checkpoint and returns the full flag of every
// FuncSnapshot it sent.
func (inc *incarnations) checkpointSnapshots(t *testing.T) []bool {
	t.Helper()
	rec, _ := inc.current()
	before := len(rec.snapshots())
	if err := inc.g.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	return rec.snapshots()[before:]
}

// Every checkpoint takes the object state in one FuncSnapshot round trip:
// the first on a fresh link and the first after a recovery hold no base
// and ask for full state at once, and a delta checkpoint asks for the
// delta alone. A delta that does not compose onto the base — here an
// object whose state changed length behind the dirty tracking — costs
// exactly one more request, for full state.
func TestCheckpointTakesOneSnapshotRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	inc := guardIncarnations(t, Config{})
	h := inc.create(t, 1, "first")
	for _, step := range []struct {
		name   string
		before func()
		want   []bool
	}{
		{"first checkpoint on a fresh link", nil, []bool{true}},
		{"delta checkpoint", func() {
			o := inc.object(t, h)
			o.data, o.dirty = []byte("again"), true
		}, []bool{false}},
		{"first checkpoint after a recovery", func() { inc.killAndRecover(t) }, []bool{true}},
		{"delta that does not compose", func() { inc.object(t, h).data = []byte("longer") }, []bool{false, true}},
	} {
		if step.before != nil {
			step.before()
		}
		if got := inc.checkpointSnapshots(t); !slices.Equal(got, step.want) {
			t.Errorf("%s: FuncSnapshot full flags %v, want %v", step.name, got, step.want)
		}
	}
	inc.g.mu.Lock()
	got := string(inc.g.ckptObjects[h])
	inc.g.mu.Unlock()
	if got != "longer" {
		t.Fatalf("checkpoint holds %q, want the object's state %q", got, "longer")
	}
	if st := inc.g.Stats(); st.Checkpoints != 4 || st.DeltaCheckpoints != 1 {
		t.Fatalf("stats %+v: want 4 checkpoints, one composed onto a base", st)
	}
}

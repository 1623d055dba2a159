package failover

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/server"
	"ava/internal/transport"
)

// logSpec has one function of every track kind the keep rules mention, and
// a keyed modify (tune: a later tune of the same object and knob replaces
// the value) for the supersession rule.
const logSpec = `
api "logtest";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };
st create(uint32_t kind, obj *o) {
  parameter(o) { out; element { allocates; } }
  track(create, o);
}
st setup(uint32_t flags) { track(config); }
st poke(obj o, uint32_t v) { track(modify, o); }
st destroy(obj o) { track(destroy, o); }
st fill(obj o, size_t n, const void *data) {
  parameter(data) { in; buffer(n); }
  track(modify, o);
  async;
}
st tune(obj o, uint32_t knob, size_t n, const void *v) {
  parameter(v) { in; buffer(n); }
  track(modify, o, knob);
  async;
}
st ping(uint32_t v);
`

func logFunc(desc *cava.Descriptor, name string) uint32 {
	fd, ok := desc.Lookup(name)
	if !ok {
		panic(name)
	}
	return fd.ID
}

func logSeqs(log []migrate.RecordedCall) []uint64 {
	out := make([]uint64, 0, len(log))
	for i := range log {
		out = append(out, log[i].Seq)
	}
	return out
}

// The keep rule, one row per cell of the table in shadowLog.keeps: what a
// recovery at watermark w keeps, what it marks pending-rebind, and what it
// replays.
func TestShadowLogKeepRules(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	const w = 5
	for _, tc := range []struct {
		fn                    string
		seq                   uint64
		confirmed             bool
		kept, pending, replay bool
	}{
		{"create", 3, true, true, false, true},
		{"create", 3, false, false, false, false},
		{"create", 8, true, true, true, false},
		{"create", 8, false, false, false, false},
		{"setup", 3, true, true, false, true},
		{"setup", 3, false, false, false, false},
		{"setup", 8, true, true, true, false},
		{"setup", 8, false, false, false, false},
		{"poke", 3, true, true, false, true},
		{"poke", 3, false, true, false, true},
		{"poke", 8, true, false, false, false},
		{"poke", 8, false, false, false, false},
		{"tune", 3, false, true, false, true},
		{"tune", 8, false, false, false, false},
		{"destroy", 3, true, false, false, false}, // never recorded by admit; the rule drops it anyway
	} {
		name := fmt.Sprintf("%s/seq%d/confirmed=%v", tc.fn, tc.seq, tc.confirmed)
		l := newShadowLog(desc, nil)
		l.upsert(&migrate.RecordedCall{Func: logFunc(desc, tc.fn), Seq: tc.seq})
		if tc.confirmed {
			l.reply(tc.seq, marshal.Int(0), nil, 0)
		}
		if got := len(l.replayLog(w)) == 1; got != tc.replay {
			t.Errorf("%s: in replayLog = %v, want %v", name, got, tc.replay)
		}
		l.rebuild(w)
		if got := l.find(tc.seq) != nil; got != tc.kept || len(l.entries) == 1 != tc.kept {
			t.Errorf("%s: kept = %v (entries %d), want %v", name, got, len(l.entries), tc.kept)
		}
		if _, got := l.pendingRebind[tc.seq]; got != tc.pending {
			t.Errorf("%s: pending-rebind = %v, want %v", name, got, tc.pending)
		}
		if l.replySeen[tc.seq] != (tc.kept && tc.confirmed) {
			t.Errorf("%s: replySeen = %v after rebuild", name, l.replySeen[tc.seq])
		}
		if got := len(l.replayLog(w)) == 1; got != tc.replay {
			t.Errorf("%s: in replayLog after rebuild = %v, want %v", name, got, tc.replay)
		}
	}
}

// replayLog runs in guest sequence order even when a resubmission
// re-recorded an old seq behind newer entries.
func TestShadowLogReplayLogSortsBySeq(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	l := newShadowLog(desc, nil)
	poke := logFunc(desc, "poke")
	for _, seq := range []uint64{4, 9, 2, 7} {
		l.upsert(&migrate.RecordedCall{Func: poke, Seq: seq})
	}
	l.upsert(&migrate.RecordedCall{Func: 9999, Seq: 1}) // unknown to the descriptor: never replayed
	if got := logSeqs(l.replayLog(8)); !reflect.DeepEqual(got, []uint64{2, 4, 7}) {
		t.Fatalf("replayLog(8) = %v, want [2 4 7]", got)
	}
}

// prune drops the entry that created the handle and every entry touching
// it, forgets their reply and pending-rebind marks, and tells the sink.
func TestShadowLogPruneByHandle(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	m := NewMemoryMirror()
	l := newShadowLog(desc, m)
	create, poke := logFunc(desc, "create"), logFunc(desc, "poke")
	l.upsert(&migrate.RecordedCall{Func: create, Seq: 1})
	l.reply(1, marshal.Int(0), []marshal.Value{marshal.HandleVal(10)}, 10)
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 2, Args: []marshal.Value{marshal.HandleVal(10), marshal.Uint(1)}})
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 3, Args: []marshal.Value{marshal.HandleVal(11), marshal.Uint(1)}})
	l.rebuild(0) // seq 1 is now pending-rebind
	if _, ok := l.pendingRebind[1]; !ok {
		t.Fatal("setup: seq 1 not pending-rebind")
	}
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 2, Args: []marshal.Value{marshal.HandleVal(10), marshal.Uint(1)}})

	l.prune(10)
	if len(l.entries) != 0 || len(l.replySeen) != 0 || len(l.pendingRebind) != 0 {
		t.Fatalf("after prune: %d entries, replySeen %v, pending %v", len(l.entries), l.replySeen, l.pendingRebind)
	}
	// The mirror never saw the rebuild, so it still holds seq 3.
	if got := mirrorSeqs(m.State()); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("mirror after prune = %v, want [3]", got)
	}
}

// A modify past the watermark is dropped by the rebuild and re-recorded
// when the guest resubmits it: the guardian's log appends it afresh, the
// sink — which kept the old copy — replaces it in place and forgets the
// old reply.
func TestShadowLogUpsertAfterRecovery(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	m := NewMemoryMirror()
	l := newShadowLog(desc, m)
	poke := logFunc(desc, "poke")
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 7, Args: []marshal.Value{marshal.HandleVal(1), marshal.Uint(1)}})
	l.reply(7, marshal.Int(0), nil, 0)
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 9, Args: []marshal.Value{marshal.HandleVal(1), marshal.Uint(2)}})
	l.rebuild(5)
	if len(l.entries) != 0 {
		t.Fatalf("rebuild(5) kept %v", logSeqs(l.replayLog(100)))
	}
	l.upsert(&migrate.RecordedCall{Func: poke, Seq: 7, Args: []marshal.Value{marshal.HandleVal(1), marshal.Uint(3)}})
	if len(l.entries) != 1 || l.replySeen[7] {
		t.Fatalf("re-record: %d entries, replySeen %v", len(l.entries), l.replySeen[7])
	}
	st := m.State()
	if got := mirrorSeqs(st); !reflect.DeepEqual(got, []uint64{7, 9}) {
		t.Fatalf("mirror entries = %v, want [7 9]", got)
	}
	if st.ReplySeen[7] || st.Entries[0].Args[1].Uint() != 3 {
		t.Fatalf("mirror kept the pre-recovery copy of seq 7: %+v seen=%v", st.Entries[0], st.ReplySeen[7])
	}
}

// logModel drives a guardian-side shadowLog the way the guardian does —
// admit, reply, destroy, checkpoint, recovery followed by the guest's
// in-order resubmission of everything past the watermark — from one random
// stream, with a MemoryMirror as its sink.
type logModel struct {
	t      *testing.T
	r      *rand.Rand
	desc   *cava.Descriptor
	mirror *MemoryMirror
	log    shadowLog
	issued []migrate.RecordedCall // every tracked call the guest issued, by seq
	open   []uint64               // admitted, not yet answered
	live   []marshal.Handle
	next   marshal.Handle
	w, max uint64
	epoch  uint32
}

func (m *logModel) issue() {
	seq := uint64(len(m.issued) + 1)
	rc := migrate.RecordedCall{Seq: seq}
	switch k := m.r.Intn(5); {
	case k == 0:
		rc.Func, rc.Args = logFunc(m.desc, "setup"), []marshal.Value{marshal.Uint(seq)}
	case k == 1 || len(m.live) == 0:
		rc.Func, rc.Args = logFunc(m.desc, "create"), []marshal.Value{marshal.Uint(seq), marshal.Len(8)}
	case k == 2:
		h := m.live[m.r.Intn(len(m.live))]
		rc.Func, rc.Args = logFunc(m.desc, "poke"), []marshal.Value{marshal.HandleVal(h), marshal.Uint(seq)}
	default:
		h := m.live[m.r.Intn(len(m.live))]
		v := binary.LittleEndian.AppendUint64(nil, seq)
		rc.Func, rc.Args = logFunc(m.desc, "tune"), []marshal.Value{marshal.HandleVal(h), marshal.Uint(uint64(m.r.Intn(3))), marshal.Uint(8), marshal.BytesVal(v)}
	}
	m.issued = append(m.issued, rc)
	m.admit(seq)
}

// admit is Guardian.admit's shadow-recording half.
func (m *logModel) admit(seq uint64) {
	if m.log.find(seq) != nil {
		delete(m.log.pendingRebind, seq) // re-executed and rebound
	} else {
		m.log.upsert(cloneRecorded(&m.issued[seq-1]))
		m.open = append(m.open, seq)
	}
	m.max = seq
}

func (m *logModel) answer() {
	if len(m.open) == 0 {
		return
	}
	i := m.r.Intn(len(m.open))
	seq := m.open[i]
	m.open = append(m.open[:i], m.open[i+1:]...)
	if m.log.find(seq) == nil {
		return // pruned or dropped since
	}
	if m.r.Intn(8) == 0 {
		m.log.drop(seq)
		return
	}
	if m.issued[seq-1].Func != logFunc(m.desc, "create") {
		m.log.reply(seq, marshal.Int(0), nil, 0)
		return
	}
	m.next++
	h := 100 + m.next
	m.live = append(m.live, h)
	m.log.reply(seq, marshal.Int(0), []marshal.Value{marshal.HandleVal(h)}, h)
}

func (m *logModel) destroy() {
	if len(m.live) == 0 {
		return
	}
	i := m.r.Intn(len(m.live))
	m.log.prune(m.live[i])
	m.live = append(m.live[:i], m.live[i+1:]...)
}

// checkpoint commits at the high-water mark and compacts, as
// endCheckpoint does. Replaying the compacted log must leave every tune
// slot at the value of its newest call at or below w — the value replaying
// the uncompacted log leaves — with that call the slot's only entry, and
// replay everything else as before.
func (m *logModel) checkpoint() {
	m.t.Helper()
	m.w = m.max
	m.mirror.MirrorCheckpoint(m.epoch, m.w, nil)
	before := m.log.replayLog(m.w)
	n := m.log.compact(m.w)
	after := m.log.replayLog(m.w)
	if len(before)-len(after) != n {
		m.t.Fatalf("compact(%d) reported %d dropped, replay shrank by %d", m.w, n, len(before)-len(after))
	}
	newest, rest := tuneSlots(m.desc, before)
	kept, restAfter := tuneSlots(m.desc, after)
	if !reflect.DeepEqual(kept, newest) || !reflect.DeepEqual(rest, restAfter) {
		m.t.Fatalf("compact(%d): slots %v, want %v; other entries %v, want %v", m.w, kept, newest, restAfter, rest)
	}
	for _, rc := range after {
		if rc.Func == logFunc(m.desc, "tune") && newest[tuneSlot(rc)] != rc.Seq {
			m.t.Fatalf("compact(%d) kept tune#%d, superseded by #%d", m.w, rc.Seq, newest[tuneSlot(rc)])
		}
	}
}

// tuneSlot renders the slot a tune call sets.
func tuneSlot(rc migrate.RecordedCall) string {
	return fmt.Sprintf("obj %d knob %d", rc.Args[0].Handle(), rc.Args[1].Uint())
}

// tuneSlots replays log: the seq of the call that last set each tune
// slot, and the seqs of every other entry in order.
func tuneSlots(desc *cava.Descriptor, log []migrate.RecordedCall) (newest map[string]uint64, rest []uint64) {
	newest = map[string]uint64{}
	for _, rc := range log {
		if rc.Func == logFunc(desc, "tune") {
			newest[tuneSlot(rc)] = rc.Seq
		} else {
			rest = append(rest, rc.Seq)
		}
	}
	return newest, rest
}

func (m *logModel) recover() {
	m.epoch++
	m.log.rebuild(m.w)
	m.mirror.MirrorEpoch(m.epoch, m.w)
	m.max, m.open = m.w, nil
	for seq := m.w + 1; seq <= uint64(len(m.issued)); seq++ {
		m.admit(seq)
	}
}

// One mutation stream, two logs: whatever the guardian's log would replay
// at the current watermark, a log rehydrated from the mirror's state
// replays too — entry for entry, with the same pending-rebind set.
func TestShadowLogMirrorRehydratesToSameReplayLog(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	for seed := int64(1); seed <= 40; seed++ {
		mirror := NewMemoryMirror()
		m := &logModel{t: t, r: rand.New(rand.NewSource(seed)), desc: desc, mirror: mirror, log: newShadowLog(desc, mirror)}
		for step := 0; step < 300; step++ {
			switch k := m.r.Intn(20); {
			case k < 8:
				m.issue()
			case k < 15:
				m.answer()
			case k < 17:
				m.destroy()
			case k < 19:
				m.checkpoint()
			default:
				m.recover()
			}
			st := mirror.State()
			if st.W != m.w {
				t.Fatalf("seed %d step %d: mirror w = %d, model w = %d", seed, step, st.W, m.w)
			}
			rehydrated := newShadowLog(desc, nil)
			rehydrated.load(st)
			if got, want := rehydrated.replayLog(m.w), m.log.replayLog(m.w); !sameLog(got, want) {
				t.Fatalf("seed %d step %d (w=%d): rehydrated log replays %v, guardian's log %v", seed, step, m.w, logSeqs(got), logSeqs(want))
			}
		}
		// load is rebuild of the log that fed the mirror: same entries, same
		// reply marks, same pending-rebind set.
		rehydrated := newShadowLog(desc, nil)
		rehydrated.load(mirror.State())
		m.log.rebuild(m.w)
		if got, want := rehydrated.replayLog(^uint64(0)), m.log.replayLog(^uint64(0)); !sameLog(got, want) {
			t.Fatalf("seed %d: load kept %v, rebuild kept %v", seed, logSeqs(got), logSeqs(want))
		}
		if !reflect.DeepEqual(rehydrated.replySeen, m.log.replySeen) || !reflect.DeepEqual(rehydrated.pendingRebind, m.log.pendingRebind) {
			t.Fatalf("seed %d: load marks (%v, %v) differ from rebuild's (%v, %v)", seed,
				rehydrated.replySeen, rehydrated.pendingRebind, m.log.replySeen, m.log.pendingRebind)
		}
	}
}

// sameLog compares two replay logs entry by entry with sameRecorded.
func sameLog(a, b []migrate.RecordedCall) bool {
	return slices.EqualFunc(a, b, func(x, y migrate.RecordedCall) bool { return sameRecorded(&x, &y) })
}

// logServer serves logSpec: create puts its kind in the table, destroy
// removes it, everything else succeeds.
func logServer() (*server.Server, *cava.Descriptor) {
	desc := cava.MustCompile(logSpec)
	reg := server.NewRegistry(desc)
	ok := func(inv *server.Invocation) error { inv.SetStatus(0); return nil }
	reg.MustRegister("create", func(inv *server.Invocation) error {
		inv.SetOutHandle(1, inv.Ctx.Handles.Insert(inv.Uint(0)))
		return ok(inv)
	})
	reg.MustRegister("destroy", func(inv *server.Invocation) error {
		inv.Ctx.Handles.Remove(inv.Handle(0))
		return ok(inv)
	})
	for _, name := range []string{"setup", "poke", "fill", "tune", "ping"} {
		reg.MustRegister(name, ok)
	}
	return server.New(reg), desc
}

// guardServer puts a guardian configured with cfg in front of ctx's
// ServeVM loop on srv, the way ava.Stack wires a VM to its own server, and
// returns it with its endpoint, the one the router forwards onto.
func guardServer(t *testing.T, srv *server.Server, ctx *server.Context, desc *cava.Descriptor, cfg Config) (*Guardian, transport.Endpoint) {
	t.Helper()
	south, serverEP := transport.NewInProc()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeVM(ctx, serverEP)
	}()
	g := New(desc, func() (transport.Endpoint, error) {
		return south, nil
	}, cfg)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		serverEP.Close()
		<-served
	})
	return g, g.Endpoint()
}

// shadowReplayLog is the guardian's shadow log as a recovery at its
// high-water mark would replay it.
func shadowReplayLog(g *Guardian) []migrate.RecordedCall {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.replayLog(g.maxSeq)
}

// shadowDriver puts a guardian in front of a fresh log server and returns a
// function that runs one call through it, failing the test unless it
// succeeds, and one that renders the shadow log as name#seq/created.
func shadowDriver(t *testing.T) (do func(name string, args ...marshal.Value) *marshal.Reply, shape func() []string) {
	t.Helper()
	srv, desc := logServer()
	g, router := guardServer(t, srv, srv.Context(1, "vm"), desc, Config{})
	seq := uint64(0)
	do = func(name string, args ...marshal.Value) *marshal.Reply {
		t.Helper()
		seq++
		sendCall(t, router, &marshal.Call{Seq: seq, Func: logFunc(desc, name), Args: args})
		rep := recvReply(t, router)
		if rep.Status != marshal.StatusOK {
			t.Fatalf("%s: %s", name, rep.Err)
		}
		return rep
	}
	shape = func() (out []string) {
		for _, rc := range shadowReplayLog(g) {
			fd, _ := desc.ByID(rc.Func)
			out = append(out, fmt.Sprintf("%s#%d/%d", fd.Name, rc.Seq, rc.Created))
		}
		return out
	}
	return do, shape
}

// Through a guardian in front of a real server: configuration, a create and
// a modify are recorded, the create with the handle it produced.
// Destroying the object prunes its create and modify but not the
// configuration.
func TestShadowLogConfigAndModify(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	do, shape := shadowDriver(t)

	do("setup", marshal.Uint(3))
	h := do("create", marshal.Uint(1), marshal.Len(8)).Outs[0].Handle()
	do("poke", marshal.HandleVal(h), marshal.Uint(42))
	want := []string{"setup#1/0", fmt.Sprintf("create#2/%d", h), "poke#3/0"}
	if got := shape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shadow log = %v, want %v", got, want)
	}
	do("destroy", marshal.HandleVal(h))
	if got, want := shape(), []string{"setup#1/0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after destroying %d: shadow log = %v, want %v", h, got, want)
	}
}

// Each create is recorded with its own handle. Destroying one object
// prunes its create and modifies, not another object's history; destroying
// that one too empties the log.
func TestShadowLogTracksCreatesAndDestroys(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	do, shape := shadowDriver(t)

	h1 := do("create", marshal.Uint(1), marshal.Len(8)).Outs[0].Handle()
	h2 := do("create", marshal.Uint(2), marshal.Len(8)).Outs[0].Handle()
	do("poke", marshal.HandleVal(h1), marshal.Uint(42))
	want := []string{fmt.Sprintf("create#1/%d", h1), fmt.Sprintf("create#2/%d", h2), "poke#3/0"}
	if got := shape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shadow log = %v, want %v", got, want)
	}
	do("destroy", marshal.HandleVal(h1))
	if got, want := shape(), []string{fmt.Sprintf("create#2/%d", h2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after destroying %d: shadow log = %v, want %v", h1, got, want)
	}
	do("destroy", marshal.HandleVal(h2))
	if got := shape(); len(got) != 0 {
		t.Fatalf("after destroying %d: shadow log = %v, want empty", h2, got)
	}
}

// Ownership rule: the shadow log never aliases a recycled frame. Ten
// thousand async fills in batch frames drawn from the frame pool — which
// the server hands back to it once it has executed them, so later batches
// are encoded into the same buffers — must leave a log equal to the values
// captured when each call was issued.
func TestShadowLogSurvivesFrameReuse(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, desc := logServer()
	g, router := guardServer(t, srv, srv.Context(1, "vm"), desc, Config{})
	seq := uint64(1)
	sendCall(t, router, &marshal.Call{Seq: seq, Func: logFunc(desc, "create"), Args: []marshal.Value{marshal.Uint(1), marshal.Len(8)}})
	obj := recvReply(t, router).Outs[0]

	const total, perBatch = 10000, 16
	fill := logFunc(desc, "fill")
	want := make([]migrate.RecordedCall, 0, total)
	for i := 0; i < total; i += perBatch {
		calls, n := make([][]byte, 0, perBatch), 2
		for j := i; j < i+perBatch; j++ {
			seq++
			payload := []byte(fmt.Sprintf("payload-%05d-%s", j, bytes.Repeat([]byte{byte(j)}, j%40)))
			args := []marshal.Value{obj, marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload)}
			calls = append(calls, marshal.EncodeCall(&marshal.Call{Seq: seq, Func: fill, Flags: marshal.FlagAsync, Args: args}))
			n += 4 + len(calls[len(calls)-1])
			want = append(want, migrate.RecordedCall{Func: fill, Args: args, Seq: seq})
		}
		frame := framebuf.Get(n)
		frame = binary.LittleEndian.AppendUint16(frame, perBatch)
		for _, c := range calls {
			frame = binary.LittleEndian.AppendUint32(frame, uint32(len(c)))
			frame = append(frame, c...)
		}
		if err := router.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	seq++
	sendCall(t, router, &marshal.Call{Seq: seq, Func: logFunc(desc, "ping"), Args: []marshal.Value{marshal.Uint(0)}})
	if rep := recvReply(t, router); rep.Status != marshal.StatusOK || rep.Err != "" {
		t.Fatalf("ping: %+v", rep) // the barrier: every fill has run
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	log := g.log.entries
	if len(log) != 1+total {
		t.Fatalf("shadow log has %d entries, want %d", len(log), 1+total)
	}
	for i, got := range log[1:] { // log[0] is the create
		exp := want[i]
		if got.Func != exp.Func || got.Seq != exp.Seq || len(got.Args) != len(exp.Args) {
			t.Fatalf("entry %d = %+v, want %+v", i, got, exp)
		}
		for k := range exp.Args {
			if !got.Args[k].Equal(exp.Args[k]) {
				t.Fatalf("entry %d arg %d = %v (%q), want %v (%q)", i, k, got.Args[k], got.Args[k].Bytes(), exp.Args[k], exp.Args[k].Bytes())
			}
		}
	}
}

// tuneCall builds a recorded tune of knob on object h with an 8-byte value.
func tuneCall(desc *cava.Descriptor, seq uint64, h marshal.Handle, knob uint64) *migrate.RecordedCall {
	v := binary.LittleEndian.AppendUint64(nil, seq)
	return &migrate.RecordedCall{Func: logFunc(desc, "tune"), Seq: seq,
		Args: []marshal.Value{marshal.HandleVal(h), marshal.Uint(knob), marshal.Uint(8), marshal.BytesVal(v)}}
}

// The supersession rule, one row per case of the table in shadowLog.compact:
// a keyed modify at or below w leaves only for a newer call at or below w on
// the same function, object and key; unkeyed modifies, creates and anything
// past w stay. The sink gets the dropped seqs as one ascending batch.
func TestShadowLogCompactRule(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	m := NewMemoryMirror()
	l := newShadowLog(desc, m)
	poke := logFunc(desc, "poke")
	for _, rc := range []*migrate.RecordedCall{
		tuneCall(desc, 1, 10, 0), // superseded by 4
		tuneCall(desc, 2, 10, 1), // another key: stays
		tuneCall(desc, 3, 11, 0), // another object: superseded by 7
		tuneCall(desc, 4, 10, 0), // superseded by 6
		{Func: poke, Seq: 5, Args: []marshal.Value{marshal.HandleVal(10), marshal.Uint(5)}}, // unkeyed
		tuneCall(desc, 6, 10, 0), // newest <= w: stays
		tuneCall(desc, 7, 11, 0), // newest <= w: stays
		{Func: poke, Seq: 8, Args: []marshal.Value{marshal.HandleVal(10), marshal.Uint(8)}}, // unkeyed
		tuneCall(desc, 10, 10, 0), // past w: stays, and supersedes nothing yet
	} {
		l.upsert(rc)
	}
	if n := l.compact(9); n != 3 {
		t.Fatalf("compact(9) dropped %d, want 3", n)
	}
	if got, want := logSeqs(l.replayLog(9)), []uint64{2, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after compact(9) a recovery at 9 replays %v, want %v", got, want)
	}
	if l.find(10) == nil {
		t.Fatal("compact(9) dropped seq 10, past the watermark")
	}
	if got, want := mirrorSeqs(m.State()), []uint64{2, 5, 6, 7, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror after compact(9) = %v, want %v", got, want)
	}
	// The next checkpoint covers seq 10, which now supersedes 6.
	if n := l.compact(10); n != 1 || l.find(6) != nil {
		t.Fatalf("compact(10) dropped %d (seq 6 present: %v), want 1", n, l.find(6) != nil)
	}
}

// Without a keyed modify in the spec a compaction drops nothing: the log
// replays exactly what it replayed before, even after its entries moved
// into fresh chunks.
func TestShadowLogCompactLeavesUnkeyedLogAsIs(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	l := newShadowLog(desc, nil)
	fill, poke := logFunc(desc, "fill"), logFunc(desc, "poke")
	for seq := uint64(1); seq <= 3*slabCalls; seq++ {
		payload := []byte(fmt.Sprintf("fill-%d", seq))
		call := &marshal.Call{Seq: seq, Func: fill, Args: []marshal.Value{marshal.HandleVal(7), marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload)}}
		if seq%3 == 0 {
			call.Func, call.Args = poke, []marshal.Value{marshal.HandleVal(7), marshal.Uint(seq)}
		}
		l.record(call)
	}
	before := slices.Clone(l.replayLog(^uint64(0)))
	for i := range before {
		before[i].Args = migrate.CloneValues(before[i].Args)
	}
	l.prune(8) // nothing to prune; the chunks stay full
	gone := func(seq uint64) bool { return seq%4 != 0 }
	for seq := uint64(1); seq <= 3*slabCalls; seq++ {
		if gone(seq) {
			l.drop(seq) // most of the log leaves, so compact moves the rest
		}
	}
	want := slices.DeleteFunc(before, func(rc migrate.RecordedCall) bool { return gone(rc.Seq) })
	if n := l.compact(3 * slabCalls); n != 0 {
		t.Fatalf("compact dropped %d entries of a log without keyed modifies", n)
	}
	if l.slab.cut != len(want) {
		t.Fatalf("compact did not move the log: %d calls cut since, want %d", l.slab.cut, len(want))
	}
	if got := l.replayLog(^uint64(0)); !sameLog(got, want) {
		t.Fatalf("compaction changed an unkeyed log: %v, want %v", logSeqs(got), logSeqs(want))
	}
}

// Ownership rule for recycled chunks: once a compaction has moved the log
// and recycled the chunks it was cut from, nothing the log or its mirror
// holds may alias them. Scribbling over every recycled chunk, and then
// cutting thousands of new entries from them, must leave every kept
// entry's byte arguments — in the log and in the mirror — as recorded.
func TestShadowLogCompactionRecyclesChunks(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	m := NewMemoryMirror()
	l := newShadowLog(desc, m)
	tune, fill := logFunc(desc, "tune"), logFunc(desc, "fill")
	issued := map[uint64][]marshal.Value{}
	seq := uint64(0)
	record := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			payload := bytes.Repeat([]byte{byte(seq)}, 1+int(seq%40))
			if seq%50 == 0 {
				payload = bytes.Repeat([]byte{byte(seq)}, slabBytesMax+1) // a copy of its own
			}
			args := []marshal.Value{marshal.HandleVal(marshal.Handle(1 + seq%2)), marshal.Uint(seq % 5), marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload)}
			call := &marshal.Call{Seq: seq, Func: tune, Args: args}
			if seq%7 == 0 {
				call.Func, call.Args = fill, []marshal.Value{args[0], args[2], args[3]}
			}
			issued[seq] = migrate.CloneValues(call.Args)
			l.record(call)
		}
	}
	check := func(when string) {
		t.Helper()
		for _, rc := range l.entries {
			if !slices.EqualFunc(rc.Args, issued[rc.Seq], marshal.Value.Equal) {
				t.Fatalf("%s: log entry #%d args changed", when, rc.Seq)
			}
		}
		for _, rc := range m.State().Entries {
			if !slices.EqualFunc(rc.Args, issued[rc.Seq], marshal.Value.Equal) {
				t.Fatalf("%s: mirror entry #%d args changed", when, rc.Seq)
			}
		}
	}
	record(3000)
	w := seq - 100
	if n := l.compact(w); n == 0 {
		t.Fatal("compact dropped nothing")
	}
	sl := &l.slab
	if len(sl.calls.free) == 0 || len(sl.values.free) == 0 || len(sl.bytes.free) == 0 {
		t.Fatalf("compact recycled no chunks: free %d/%d/%d", len(sl.calls.free), len(sl.values.free), len(sl.bytes.free))
	}
	for _, c := range sl.calls.free {
		for i := range c {
			c[i] = migrate.RecordedCall{Func: 9999, Seq: ^uint64(0)}
		}
	}
	for _, c := range sl.values.free {
		for i := range c {
			c[i] = marshal.Int(-1)
		}
	}
	for _, c := range sl.bytes.free {
		for i := range c {
			c[i] = 0xAA
		}
	}
	check("after scribbling over recycled chunks")
	record(3000)
	check("after cutting new entries from recycled chunks")
	if n := l.compact(seq); n == 0 {
		t.Fatal("second compact dropped nothing")
	}
	check("after a second compaction")
}

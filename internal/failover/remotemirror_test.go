package failover

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ava/internal/backoff"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/transport"
)

// mirrorTestHost is a MirrorServer "machine" a test can SIGKILL: kill
// closes the accept socket and severs every established replication
// stream, exactly what a dead host presents to its guardians.
type mirrorTestHost struct {
	srv *MirrorServer
	l   *transport.Listener

	mu  sync.Mutex
	eps []transport.Endpoint
}

func startMirrorHost(t *testing.T, addr string) *mirrorTestHost {
	t.Helper()
	l, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	return serveMirrorOn(t, l)
}

func serveMirrorOn(t *testing.T, l *transport.Listener) *mirrorTestHost {
	t.Helper()
	h := &mirrorTestHost{srv: NewMirrorServer(), l: l}
	go func() {
		for {
			ep, err := l.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			h.eps = append(h.eps, ep)
			h.mu.Unlock()
			go h.srv.ServeConn(ep)
		}
	}()
	t.Cleanup(h.kill)
	return h
}

func (h *mirrorTestHost) addr() string { return h.l.Addr() }

func (h *mirrorTestHost) kill() {
	h.l.Close()
	h.mu.Lock()
	eps := append([]transport.Endpoint(nil), h.eps...)
	h.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

func quickBackoff() backoff.Config {
	return backoff.Config{Base: time.Millisecond, Cap: 5 * time.Millisecond, Budget: 200 * time.Millisecond, Seed: 3}
}

// sameMirrorState compares the fields rehydration depends on.
func sameMirrorState(a, b *MirrorState) bool {
	if a.W != b.W || a.Epoch != b.Epoch || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if !sameRecorded(&a.Entries[i], &b.Entries[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.ReplySeen, b.ReplySeen) && reflect.DeepEqual(a.Objects, b.Objects)
}

// sameRecorded compares two log entries field for field, values by content
// (a Value holds a pointer to its buffer, so reflect.DeepEqual would compare
// addresses) and value vectors by nil-ness too, as DeepEqual would.
func sameRecorded(a, b *migrate.RecordedCall) bool {
	sameValues := func(x, y []marshal.Value) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !x[i].Equal(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Func == b.Func && a.Seq == b.Seq && a.Created == b.Created &&
		a.Ret.Equal(b.Ret) && sameValues(a.Args, b.Args) && sameValues(a.Outs, b.Outs)
}

// The full replication path: LogSink mutations stream as mirror-batch control frames,
// and FetchMirrorState retrieves a byte-equal copy of the staging state —
// what a replacement guardian on another machine would rehydrate from.
func TestRemoteMirrorReplicatesAndFetches(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startMirrorHost(t, "127.0.0.1:0")
	srv := h.srv
	rm := NewRemoteMirror(h.addr(), RemoteMirrorConfig{VM: 7, Name: "vm-seven", Backoff: quickBackoff()})
	defer rm.Close()

	rm.MirrorAppend(rec(1, 10, marshal.BytesVal([]byte{1, 2})))
	done := rec(1, 10)
	done.Ret = marshal.Int(0)
	done.Outs = []marshal.Value{marshal.BytesVal([]byte{3})}
	rm.MirrorReply(done)
	rm.MirrorAppend(rec(2, 0, marshal.HandleVal(10)))
	rm.MirrorCheckpoint(1, 1, fullDeltas(map[marshal.Handle][]byte{10: {7, 7, 7}}))
	rm.MirrorAppend(rec(3, 11))
	rm.MirrorDrop(3)

	if !rm.Flush(2 * time.Second) {
		t.Fatal("mirror did not drain")
	}
	if rm.Acked() == 0 {
		t.Fatal("no batch was ever acked")
	}

	want := rm.State()
	if got := srv.State(7); !sameMirrorState(want, got) {
		t.Fatalf("remote state diverged:\n remote %+v\n local  %+v", got, want)
	}
	fetched, err := FetchMirrorState(h.addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMirrorState(want, fetched) {
		t.Fatalf("fetched state diverged:\n fetched %+v\n local   %+v", fetched, want)
	}

	// The admin snapshot names the VM from the hello.
	snap := srv.Snapshot()
	if len(snap) != 1 || snap[0].VM != 7 || snap[0].Name != "vm-seven" || snap[0].Entries != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// A compaction's batch of superseded seqs replicates as one sub-op: the
// mirror host drops exactly those entries and converges to staging.
func TestRemoteMirrorReplicatesCompaction(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startMirrorHost(t, "127.0.0.1:0")
	rm := NewRemoteMirror(h.addr(), RemoteMirrorConfig{VM: 5, Backoff: quickBackoff()})
	defer rm.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		rm.MirrorAppend(rec(seq, 0, marshal.HandleVal(10), marshal.BytesVal([]byte{byte(seq)})))
	}
	rm.MirrorCheckpoint(1, 6, nil)
	rm.MirrorCompact([]uint64{1, 3, 4, 9})
	if !rm.Flush(2 * time.Second) {
		t.Fatal("mirror did not drain")
	}
	want := rm.State()
	if got := mirrorSeqs(want); !reflect.DeepEqual(got, []uint64{2, 5, 6}) {
		t.Fatalf("staging after compaction = %v, want [2 5 6]", got)
	}
	if got := h.srv.State(5); !sameMirrorState(want, got) {
		t.Fatalf("remote state diverged:\n remote %+v\n local  %+v", got, want)
	}
}

// A compaction sub-op whose count disagrees with its body, or whose seqs do
// not ascend, is refused as malformed and leaves the mirror as it was.
func TestApplyMirrorSubRefusesMalformedCompact(t *testing.T) {
	for name, frame := range map[string][]byte{
		"count over body":  sub(mirrorSubCompact, 2, binary.LittleEndian.AppendUint64(nil, 1)),
		"count under body": sub(mirrorSubCompact, 0, binary.LittleEndian.AppendUint64(nil, 1)),
		"ragged body":      sub(mirrorSubCompact, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0, 9}),
		"not ascending":    subCompact([]uint64{2, 1}),
		"repeated":         subCompact([]uint64{1, 1}),
	} {
		m := NewMemoryMirror()
		m.MirrorAppend(rec(1, 0))
		m.MirrorAppend(rec(2, 0))
		if err := applyMirrorSub(m, frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := mirrorSeqs(m.State()); !reflect.DeepEqual(got, []uint64{1, 2}) {
			t.Errorf("%s: mirror holds %v after a refused compaction, want [1 2]", name, got)
		}
	}
}

// Delta checkpoints replicate incrementally and converge; a full resync
// after the host restarts (empty state, same address) restores the
// invariant without guardian involvement.
func TestRemoteMirrorDeltaAndResyncAfterHostRestart(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startMirrorHost(t, "127.0.0.1:0")
	srv := h.srv
	addr := h.addr()
	rm := NewRemoteMirror(addr, RemoteMirrorConfig{VM: 1, Backoff: quickBackoff()})
	defer rm.Close()

	rm.MirrorAppend(rec(1, 10))
	rm.MirrorCheckpoint(1, 1, fullDeltas(map[marshal.Handle][]byte{10: {0, 0, 0, 0}}))
	if !rm.Flush(2 * time.Second) {
		t.Fatal("initial state did not replicate")
	}

	// An incremental checkpoint riding the established stream: one dirty
	// byte at offset 1 of a 4-byte object.
	delta := []marshal.ObjectDelta{{
		Handle: 10, BaseLen: 4,
		Ranges: []marshal.DeltaRange{{Off: 1, Bytes: []byte{9}}},
	}}
	if !rm.MirrorCheckpoint(2, 2, delta) {
		t.Fatal("delta refused against a matching base")
	}
	if !rm.Flush(2 * time.Second) {
		t.Fatal("delta did not replicate")
	}
	if got := srv.State(1); got.W != 2 || got.Objects[10][1] != 9 {
		t.Fatalf("delta not composed remotely: %+v", got)
	}

	// SIGKILL the mirror host; a replacement process binds the same address
	// with empty state.
	h.kill()
	var l2 *transport.Listener
	for deadline := time.Now().Add(2 * time.Second); ; {
		var err error
		if l2, err = transport.Listen(addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("cannot rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h2 := serveMirrorOn(t, l2)

	// The next mutation reconnects and resyncs the full staging state.
	rm.MirrorAppend(rec(5, 12))
	if !rm.Flush(5 * time.Second) {
		t.Fatal("resync after host restart did not drain")
	}
	if !sameMirrorState(rm.State(), h2.srv.State(1)) {
		t.Fatalf("replacement host did not converge:\n remote %+v\n local  %+v", h2.srv.State(1), rm.State())
	}
}

// A dead mirror host must never stall the guardian: every LogSink call
// returns promptly and the staging state stays authoritative.
func TestRemoteMirrorDeadHostNeverBlocks(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	rm := NewRemoteMirror("127.0.0.1:1", RemoteMirrorConfig{VM: 1, Backoff: quickBackoff()})
	defer rm.Close()

	start := time.Now()
	for i := uint64(1); i <= 100; i++ {
		rm.MirrorAppend(rec(i, marshal.Handle(i)))
	}
	rm.MirrorCheckpoint(1, 50, fullDeltas(map[marshal.Handle][]byte{1: {1}}))
	if spent := time.Since(start); spent > time.Second {
		t.Fatalf("mutations against a dead mirror host took %v", spent)
	}
	if rm.State().W != 50 {
		t.Fatal("staging state lost a mutation")
	}
	if rm.Flush(20 * time.Millisecond) {
		t.Fatal("Flush claimed durability on a dead host")
	}
}

// The -race hammer: LogSink traffic from several goroutines (serialized
// by a stand-in for the guardian's state lock, which is the sink
// contract) races against lock-free State/Acked/Snapshot readers and the
// RemoteMirror's own pump goroutine.
func TestMirrorConcurrentHammer(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startMirrorHost(t, "127.0.0.1:0")
	srv := h.srv
	rm := NewRemoteMirror(h.addr(), RemoteMirrorConfig{VM: 3, Backoff: quickBackoff()})
	defer rm.Close()
	mm := NewMemoryMirror()

	sinks := []LogSink{mm, rm}
	var writers, readers sync.WaitGroup
	var guardianMu sync.Mutex // LogSink calls are serialized under the guardian's lock
	stop := make(chan struct{})

	// Writers: appends, replies, drops, checkpoints over disjoint seq
	// ranges per goroutine so the traffic stays valid while interleaving.
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(g) * 1000
			for i := uint64(1); i <= 50; i++ {
				seq := base + i
				rc := rec(seq, marshal.Handle(seq), marshal.BytesVal([]byte{byte(g), byte(i)}))
				guardianMu.Lock()
				for _, s := range sinks {
					s.MirrorAppend(rc)
				}
				switch rng.Intn(3) {
				case 0:
					done := rec(seq, marshal.Handle(seq))
					done.Ret = marshal.Int(0)
					for _, s := range sinks {
						s.MirrorReply(done)
					}
				case 1:
					for _, s := range sinks {
						s.MirrorDrop(seq)
					}
				case 2:
					for _, s := range sinks {
						s.MirrorCheckpoint(uint32(g), seq, fullDeltas(map[marshal.Handle][]byte{marshal.Handle(seq): {byte(i)}}))
					}
				}
				guardianMu.Unlock()
			}
		}(g)
	}

	// Readers: state snapshots from every side while writers run.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = mm.State()
				_ = rm.State()
				_ = rm.Acked()
				_ = srv.Snapshot()
				_ = srv.State(3)
			}
		}()
	}

	// Wait for the writers, stop the readers, then require convergence.
	wgWait := make(chan struct{})
	go func() { writers.Wait(); close(wgWait) }()
	select {
	case <-wgWait:
	case <-time.After(10 * time.Second):
		t.Fatal("hammer wedged")
	}
	close(stop)
	readers.Wait()
	if !rm.Flush(5 * time.Second) {
		t.Fatal("remote mirror did not drain after the hammer")
	}
	if !sameMirrorState(rm.State(), srv.State(3)) {
		t.Fatal("remote mirror did not converge to staging after the hammer")
	}
}

// refusingSink is a RemoteMirror whose checkpoints a MemoryMirror sees too.
// refuse makes it turn the next delta set down unseen, as a sink that lost
// its base would.
type refusingSink struct {
	*RemoteMirror
	mem    *MemoryMirror
	refuse bool
}

func (s *refusingSink) MirrorCheckpoint(epoch uint32, w uint64, deltas []marshal.ObjectDelta) bool {
	if s.refuse {
		s.refuse = false
		return false
	}
	return s.mem.MirrorCheckpoint(epoch, w, deltas) && s.RemoteMirror.MirrorCheckpoint(epoch, w, deltas)
}

// One guardian's checkpoint stream — full, delta, a sink refusal answered
// with all-Full deltas, a recovery, full again — leaves a MemoryMirror, a
// RemoteMirror's staging mirror and its mirror host each holding exactly
// the guardian's checkpoint.
func TestCheckpointStreamConvergesOnEveryMirror(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startMirrorHost(t, "127.0.0.1:0")
	rm := NewRemoteMirror(h.addr(), RemoteMirrorConfig{VM: 1, Backoff: quickBackoff()})
	defer rm.Close()
	sink := &refusingSink{RemoteMirror: rm, mem: NewMemoryMirror()}
	inc := guardIncarnations(t, Config{Sink: sink})
	a, b := inc.create(t, 1, "alpha"), inc.create(t, 2, "beta")
	dirty := func(hd marshal.Handle, data string) {
		o := inc.object(t, hd)
		o.data, o.dirty = []byte(data), true
	}
	for _, step := range []struct {
		name   string
		before func()
	}{
		{"full", nil},
		{"delta", func() { dirty(a, "alpha-2") }},
		{"refused delta", func() { dirty(b, "beta-2"); sink.refuse = true }},
		{"after a recovery", func() { inc.killAndRecover(t); dirty(a, "alpha-3") }},
	} {
		if step.before != nil {
			step.before()
		}
		if err := inc.g.CheckpointNow(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !rm.Flush(2 * time.Second) {
			t.Fatalf("%s: mirror did not drain", step.name)
		}
		inc.g.mu.Lock()
		want := inc.g.ckptObjects
		inc.g.mu.Unlock()
		for name, st := range map[string]*MirrorState{
			"memory": sink.mem.State(), "staging": rm.State(), "host": h.srv.State(1),
		} {
			if !reflect.DeepEqual(st.Objects, want) {
				t.Errorf("%s: %s mirror holds %q, guardian %q", step.name, name, st.Objects, want)
			}
		}
	}
	if got := string(sink.mem.State().Objects[b]); got != "beta-2" {
		t.Fatalf("the refused delta's object reads %q after the all-Full resend, want %q", got, "beta-2")
	}
	if st := inc.g.Stats(); st.Checkpoints != 4 || st.DeltaCheckpoints != 2 {
		t.Fatalf("stats %+v: want 4 checkpoints, the middle two composed onto a base", st)
	}
}

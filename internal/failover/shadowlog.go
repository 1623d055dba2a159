package failover

import (
	"cmp"
	"slices"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/spec"
)

// shadowLog is the §4.3 record log: tracked calls keyed by guest sequence
// number, each with the reply it produced once that reply has been seen.
// The guardian holds one (fed from Send and the downlink) and so does
// every MemoryMirror (fed from a guardian's sink stream); the keep rules a
// recovery applies, and the supersession rule a checkpoint compacts by,
// are written here once, so a log rehydrated from a mirror is the log the
// guardian that fed the mirror would have rebuilt.
//
// Plain data: every method runs under its owner's lock (the guardian's mu,
// the mirror's mu). Each mutation is forwarded to sink, when set, under
// that same lock.
type shadowLog struct {
	desc *cava.Descriptor // for the keep rules; nil on a mirror, which never applies them
	sink LogSink          // optional replica stream

	entries   []*migrate.RecordedCall // ascending seq; search binary-searches it
	replySeen map[uint64]bool
	// pendingRebind marks completed creates/configs past the last recovery
	// watermark: a resubmitted copy re-executes and its fresh handles are
	// rebound to the recorded ones.
	pendingRebind map[uint64]struct{}
	slab          slabs // what record cuts admitted calls from

	// compact's scratch, kept so a compacting checkpoint allocates nothing
	// once the log has reached its working size.
	slots map[slot]struct{}
	gone  []uint64
}

// Slab sizes for record. A byte argument up to slabBytesMax long (a kernel
// argument, a scalar passed by pointer) is cut from the byte slab; a
// larger one — a buffer's contents — keeps a copy of its own, so a slab is
// never pinned by one big payload nor a big payload by a slab.
const (
	slabCalls    = 256
	slabValues   = 1024
	slabBytes    = 16 << 10
	slabBytesMax = 512
)

// slabs back the copies record makes: each admitted call's RecordedCall,
// argument vector and small byte arguments are cut from the chunk of their
// kind being cut from. Every cut is capacity-capped, so no append to one
// entry can write into its neighbour. Entries leave the log out of order
// (prune, drop, supersession), so a chunk is not freed entry by entry:
// once the log holds less than half of what its chunks were cut for,
// compact moves what it still holds into other chunks and recycles every
// chunk cut from before (pool).
type slabs struct {
	calls  pool[migrate.RecordedCall]
	values pool[marshal.Value]
	bytes  pool[byte]
	cut    int // calls cut since the last move, moved ones included
}

// pool is one kind's slab chunks. Chunks cycle through three lists: used
// (cut from since the last move), old (during a move, the ones being
// moved out of) and free (cleared by the last move, cut from next). A free
// chunk no cut has taken by the following move is let go, so the pool
// follows what one checkpoint interval needs, not the log's history.
type pool[T any] struct {
	size            int // chunk capacity
	tail            []T // unused tail of the chunk being cut from
	used, old, free [][]T
}

// cut returns n adjacent zeroed elements, capacity-capped. A run longer
// than a chunk gets a backing of its own, outside the pool.
func (p *pool[T]) cut(n int) []T {
	if n > p.size {
		return make([]T, n)
	}
	if n > cap(p.tail)-len(p.tail) {
		p.tail = p.take()
	}
	a, b := len(p.tail), len(p.tail)+n
	p.tail = p.tail[:b]
	return p.tail[a:b:b]
}

// take opens the next chunk: a free one if the last move left any, else
// a fresh one.
func (p *pool[T]) take() []T {
	var c []T
	if k := len(p.free); k > 0 {
		c, p.free = p.free[k-1], p.free[:k-1]
	} else {
		c = make([]T, p.size)
	}
	p.used = append(p.used, c)
	return c[:0]
}

// beginMove sets every chunk cut from so far aside; cuts until endMove
// come from free chunks or fresh ones.
func (p *pool[T]) beginMove() {
	p.old, p.used = p.used, p.old[:0]
	p.tail = nil
}

// endMove recycles the chunks beginMove set aside: nothing refers to them
// any more, so they are cleared and become the free list.
func (p *pool[T]) endMove() {
	clear(p.free[:cap(p.free)])
	for _, c := range p.old {
		clear(c)
	}
	p.free, p.old = p.old, p.free[:0]
}

// cutValues deep-copies vs into the value slab, as migrate.CloneValues
// would into fresh memory. An empty vector is nil, as the decoder gives it.
// owned says vs's byte arguments already belong to the log (a move): a
// large one is then kept rather than copied again.
func (sl *slabs) cutValues(vs []marshal.Value, owned bool) []marshal.Value {
	if len(vs) == 0 {
		return nil
	}
	out := sl.values.cut(len(vs))
	for i, v := range vs {
		out[i] = sl.cutValue(v, owned)
	}
	return out
}

// cutValue is Value.Clone with a small byte argument's contents cut from
// the byte slab.
func (sl *slabs) cutValue(v marshal.Value, owned bool) marshal.Value {
	b := v.Bytes()
	if v.Kind() != marshal.KindBytes || len(b) == 0 || len(b) > slabBytesMax {
		if owned {
			return v
		}
		return v.Clone()
	}
	out := sl.bytes.cut(len(b))
	copy(out, b)
	return marshal.BytesVal(out)
}

// cutCall cuts one RecordedCall, zeroed.
func (sl *slabs) cutCall() *migrate.RecordedCall {
	sl.cut++
	return &sl.calls.cut(1)[0]
}

func (sl *slabs) beginMove() {
	sl.calls.beginMove()
	sl.values.beginMove()
	sl.bytes.beginMove()
	sl.cut = 0
}

func (sl *slabs) endMove() {
	sl.calls.endMove()
	sl.values.endMove()
	sl.bytes.endMove()
}

// move copies an entry into the chunks cut from since beginMove. Its reply
// (Ret, Outs) and large byte arguments are the log's own copies already
// and are carried over as they are.
func (sl *slabs) move(rc *migrate.RecordedCall) *migrate.RecordedCall {
	nc := sl.cutCall()
	*nc = *rc
	nc.Args = sl.cutValues(rc.Args, true)
	return nc
}

func newShadowLog(desc *cava.Descriptor, sink LogSink) shadowLog {
	return shadowLog{
		desc:          desc,
		sink:          sink,
		replySeen:     make(map[uint64]bool),
		pendingRebind: make(map[uint64]struct{}),
		slab: slabs{
			calls:  pool[migrate.RecordedCall]{size: slabCalls},
			values: pool[marshal.Value]{size: slabValues},
			bytes:  pool[byte]{size: slabBytes},
		},
	}
}

// record copies a newly admitted tracked call out of the frame it was
// decoded from into the log's slabs, and upserts the copy.
func (l *shadowLog) record(call *marshal.Call) {
	rc := l.slab.cutCall()
	rc.Func, rc.Seq, rc.Args = call.Func, call.Seq, l.slab.cutValues(call.Args, false)
	l.upsert(rc)
}

// search is the index of the entry with this seq, or where it would go.
func (l *shadowLog) search(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(l.entries, seq, func(rc *migrate.RecordedCall, seq uint64) int {
		return cmp.Compare(rc.Seq, seq)
	})
}

// find returns the entry with this seq, or nil.
func (l *shadowLog) find(seq uint64) *migrate.RecordedCall {
	if i, ok := l.search(seq); ok {
		return l.entries[i]
	}
	return nil
}

// upsert records a newly admitted tracked call, taking ownership of rc.
func (l *shadowLog) upsert(rc *migrate.RecordedCall) {
	l.put(rc)
	if l.sink != nil {
		l.sink.MirrorAppend(rc)
	}
}

// put places rc in seq order. A seq already present (a call past the
// watermark re-recorded by resubmission) is replaced in place and loses
// its reply.
func (l *shadowLog) put(rc *migrate.RecordedCall) {
	if n := len(l.entries); n == 0 || l.entries[n-1].Seq < rc.Seq {
		l.entries = append(l.entries, rc)
		return
	}
	i, ok := l.search(rc.Seq)
	if ok {
		l.entries[i] = rc
		delete(l.replySeen, rc.Seq)
		return
	}
	l.entries = slices.Insert(l.entries, i, rc)
}

// reply attaches a completed reply to the entry with this seq, deep-copying
// whatever aliases the caller's frame. Unknown seqs are ignored.
func (l *shadowLog) reply(seq uint64, ret marshal.Value, outs []marshal.Value, created marshal.Handle) {
	rc := l.find(seq)
	if rc == nil {
		return
	}
	rc.Ret = ret.Clone()
	rc.Outs = migrate.CloneValues(outs)
	rc.Created = created
	l.replySeen[seq] = true
	if l.sink != nil {
		l.sink.MirrorReply(rc)
	}
}

// drop removes the entry with this seq (failed call, failed re-execution).
func (l *shadowLog) drop(seq uint64) {
	i, ok := l.search(seq)
	if !ok {
		return
	}
	l.forget(seq)
	l.entries = slices.Delete(l.entries, i, i+1)
	if l.sink != nil {
		l.sink.MirrorDrop(seq)
	}
}

// prune drops every entry a destroyed handle obsoletes
// (migrate.RecordedCall.Obsoleted).
func (l *shadowLog) prune(h marshal.Handle) {
	kept := l.entries[:0]
	for _, rc := range l.entries {
		if rc.Obsoleted(h) {
			l.forget(rc.Seq)
			continue
		}
		kept = append(kept, rc)
	}
	l.truncate(kept)
	if l.sink != nil {
		l.sink.MirrorPrune(h)
	}
}

// remove drops the entries with these seqs, ascending, in one pass: a
// compaction's batch, as compact and a mirror apply it.
func (l *shadowLog) remove(seqs []uint64) {
	kept := l.entries[:0]
	for _, rc := range l.entries {
		for len(seqs) > 0 && seqs[0] < rc.Seq {
			seqs = seqs[1:]
		}
		if len(seqs) > 0 && seqs[0] == rc.Seq {
			l.forget(rc.Seq)
			continue
		}
		kept = append(kept, rc)
	}
	l.truncate(kept)
}

// truncate makes kept, a filtered prefix of entries' backing, the entries,
// clearing what is left behind it so no dropped entry stays reachable.
func (l *shadowLog) truncate(kept []*migrate.RecordedCall) {
	clear(l.entries[len(kept):])
	l.entries = kept
}

func (l *shadowLog) forget(seq uint64) {
	delete(l.replySeen, seq)
	delete(l.pendingRebind, seq)
}

// keeps is the keep rule of a recovery at watermark w — the only place it
// is written down:
//
//	kind            seq <= w                  seq > w
//	create, config  kept iff reply seen;      kept iff reply seen, pending
//	                replayed                  rebind; re-executed by the
//	                                          guest's resubmission
//	modify          kept; replayed            dropped; re-recorded when the
//	                                          guest resubmits it
//
// Replay runs strictly up to the watermark so the original order between
// creates, configs and modifies is preserved — a create past w may depend
// on a modify past w (a kernel created from a freshly built program), and
// only the guest's in-order window resubmission can re-execute that
// correctly. An unconfirmed create/config never produced a handle the guest
// holds, so resubmission re-executes it as new.
func (l *shadowLog) keeps(rc *migrate.RecordedCall, w uint64) bool {
	fd, ok := l.desc.ByID(rc.Func)
	if !ok {
		return false
	}
	switch fd.Track.Kind {
	case spec.TrackCreate, spec.TrackConfig:
		return l.replySeen[rc.Seq]
	case spec.TrackModify:
		return rc.Seq <= w
	}
	return false
}

// slot names what a keyed modify sets (track(modify, obj, key)): the
// function, the object and the key's value.
type slot struct {
	fn  uint32
	obj marshal.Handle
	key marshal.Value
}

// slotOf reports the slot a keyed modify sets; ok=false for any other
// entry, and for one whose arguments do not have the declared shape.
func (l *shadowLog) slotOf(rc *migrate.RecordedCall) (s slot, ok bool) {
	fd, known := l.desc.ByID(rc.Func)
	if !known || fd.Track.Kind != spec.TrackModify || fd.TrackKeyIdx < 0 ||
		fd.TrackIdx >= len(rc.Args) || fd.TrackKeyIdx >= len(rc.Args) {
		return s, false
	}
	obj, key := rc.Args[fd.TrackIdx], rc.Args[fd.TrackKeyIdx]
	if obj.Kind() != marshal.KindHandle || (key.Kind() != marshal.KindInt && key.Kind() != marshal.KindUint) {
		return s, false
	}
	return slot{fn: rc.Func, obj: obj.Handle(), key: key}, true
}

// compact is what a checkpoint committing at watermark w does to the log —
// the supersession rule, the only place it is written down:
//
//	kind                seq <= w                        seq > w
//	keyed modify        dropped iff a newer call <= w   kept (keeps)
//	                    sets the same slot; else kept
//	everything else     kept (keeps)                    kept (keeps)
//
// Every recovery from now on replays at a watermark of w or later and so
// replays both calls, in order, and the newer one overwrites all the
// older one set. The guest resubmits only calls past w, so nothing
// brings a dropped entry back. Then, once the log holds less than half of
// what its chunks were cut for, what is left moves into fresh chunks and
// the old ones are recycled, so the log's memory follows its live state,
// not its history. compact reports how many entries it dropped, and tells
// the sink their seqs in one batch.
func (l *shadowLog) compact(w uint64) int {
	if l.slots == nil {
		l.slots = make(map[slot]struct{})
	}
	clear(l.slots)
	l.gone = l.gone[:0]
	hi, at := l.search(w)
	if at {
		hi++
	}
	for i := hi - 1; i >= 0; i-- { // newest first: the first call seen in a slot stays
		s, ok := l.slotOf(l.entries[i])
		if !ok {
			continue
		}
		if _, newer := l.slots[s]; newer {
			l.gone = append(l.gone, l.entries[i].Seq)
		} else {
			l.slots[s] = struct{}{}
		}
	}
	slices.Reverse(l.gone)
	l.remove(l.gone)
	if 2*len(l.entries) < l.slab.cut {
		l.slab.beginMove()
		for i, rc := range l.entries {
			l.entries[i] = l.slab.move(rc)
		}
		l.slab.endMove()
	}
	if len(l.gone) > 0 && l.sink != nil {
		l.sink.MirrorCompact(l.gone)
	}
	return len(l.gone)
}

// replayLog derives the log a recovery at watermark w replays: every kept
// entry at or below w, in guest sequence order.
func (l *shadowLog) replayLog(w uint64) []migrate.RecordedCall {
	out := make([]migrate.RecordedCall, 0, len(l.entries))
	for _, rc := range l.entries {
		if rc.Seq > w {
			break
		}
		if l.keeps(rc, w) {
			out = append(out, *rc)
		}
	}
	return out
}

// rebuild reduces the log to what a recovery at watermark w leaves true of
// the replacement server: dropped entries come back when the guest
// resubmits them, kept ones past w are marked pending-rebind. The sink is
// not told — entries the rebuild discards stay in a mirror, whose
// rehydration applies the same rule and filters them out again.
func (l *shadowLog) rebuild(w uint64) {
	l.pendingRebind = make(map[uint64]struct{})
	kept := l.entries[:0]
	for _, rc := range l.entries {
		if !l.keeps(rc, w) {
			delete(l.replySeen, rc.Seq)
			continue
		}
		kept = append(kept, rc)
		if rc.Seq > w {
			l.pendingRebind[rc.Seq] = struct{}{}
		}
	}
	l.truncate(kept)
}

// load replaces the log with the rebuild of a mirrored one at the mirror's
// watermark, then seeds the (possibly fresh) sink with what was kept so the
// next crash rehydrates too. Of two entries with one seq the later wins.
func (l *shadowLog) load(st *MirrorState) {
	*l = newShadowLog(l.desc, l.sink)
	for i := range st.Entries {
		rc := cloneRecorded(&st.Entries[i])
		l.put(rc)
		if st.ReplySeen[rc.Seq] {
			l.replySeen[rc.Seq] = true
		}
	}
	l.rebuild(st.W)
	if l.sink == nil {
		return
	}
	for _, rc := range l.entries {
		l.sink.MirrorAppend(rc)
		if l.replySeen[rc.Seq] {
			l.sink.MirrorReply(rc)
		}
	}
}

// state deep-copies the log into st's Entries and ReplySeen.
func (l *shadowLog) state(st *MirrorState) {
	st.Entries = make([]migrate.RecordedCall, 0, len(l.entries))
	st.ReplySeen = make(map[uint64]bool, len(l.replySeen))
	for _, rc := range l.entries {
		st.Entries = append(st.Entries, *cloneRecorded(rc))
	}
	for seq := range l.replySeen {
		st.ReplySeen[seq] = true
	}
}

func cloneRecorded(rc *migrate.RecordedCall) *migrate.RecordedCall {
	return &migrate.RecordedCall{
		Func:    rc.Func,
		Args:    migrate.CloneValues(rc.Args),
		Ret:     rc.Ret,
		Outs:    migrate.CloneValues(rc.Outs),
		Created: rc.Created,
		Seq:     rc.Seq,
	}
}

package failover

import (
	"sort"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/spec"
)

// shadowLog is the §4.3 record log: tracked calls keyed by guest sequence
// number, each with the reply it produced once that reply has been seen.
// The guardian holds one (fed from the uplink and downlink) and so does
// every MemoryMirror (fed from a guardian's sink stream); the keep rules a
// recovery applies are written here once, so a log rehydrated from a mirror
// is the log the guardian that fed the mirror would have rebuilt.
//
// Plain data: every method runs under its owner's lock (the guardian's mu,
// the mirror's mu). Each mutation is forwarded to sink, when set, under
// that same lock.
type shadowLog struct {
	desc *cava.Descriptor // for the keep rules; nil on a mirror, which never applies them
	sink LogSink          // optional replica stream

	entries   []*migrate.RecordedCall // arrival order; replayLog sorts
	bySeq     map[uint64]*migrate.RecordedCall
	replySeen map[uint64]bool
	// pendingRebind marks completed creates/configs past the last recovery
	// watermark: a resubmitted copy re-executes and its fresh handles are
	// rebound to the recorded ones.
	pendingRebind map[uint64]struct{}
	slab          slabs // what record cuts admitted calls from
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
// argument vector and small byte arguments are cut from the unused tail of
// the slab of their kind, and a slab that runs out is replaced, not grown. Every cut is capacity-capped, so no append to one
// entry can write into its neighbour. Entries leave the log out of order
// (prune, drop), so a slab is not recycled: the collector takes it back
// once no entry cut from it is left.
type slabs struct {
	calls  []migrate.RecordedCall
	values []marshal.Value
	bytes  []byte
}

func newShadowLog(desc *cava.Descriptor, sink LogSink) shadowLog {
	return shadowLog{
		desc:          desc,
		sink:          sink,
		bySeq:         make(map[uint64]*migrate.RecordedCall),
		replySeen:     make(map[uint64]bool),
		pendingRebind: make(map[uint64]struct{}),
	}
}

// record copies a newly admitted tracked call out of the frame it was
// decoded from into the log's slabs, and upserts the copy.
func (l *shadowLog) record(call *marshal.Call) {
	sl := &l.slab
	if len(sl.calls) == cap(sl.calls) {
		sl.calls = make([]migrate.RecordedCall, 0, slabCalls)
	}
	sl.calls = sl.calls[:len(sl.calls)+1]
	rc := &sl.calls[len(sl.calls)-1]
	rc.Func, rc.Seq, rc.Args = call.Func, call.Seq, sl.cutValues(call.Args)
	l.upsert(rc)
}

// cutValues deep-copies vs into the value slab, as migrate.CloneValues
// would into fresh memory. An empty vector is nil, as the decoder gives it.
func (sl *slabs) cutValues(vs []marshal.Value) []marshal.Value {
	if len(vs) == 0 {
		return nil
	}
	if len(vs) > cap(sl.values)-len(sl.values) {
		sl.values = make([]marshal.Value, 0, max(len(vs), slabValues))
	}
	a, b := len(sl.values), len(sl.values)+len(vs)
	sl.values = sl.values[:b]
	out := sl.values[a:b:b]
	for i, v := range vs {
		out[i] = sl.cutValue(v)
	}
	return out
}

// cutValue is Value.Clone with a small byte argument's contents cut from
// the byte slab.
func (sl *slabs) cutValue(v marshal.Value) marshal.Value {
	b := v.Bytes()
	if v.Kind() != marshal.KindBytes || len(b) == 0 || len(b) > slabBytesMax {
		return v.Clone()
	}
	if len(b) > cap(sl.bytes)-len(sl.bytes) {
		sl.bytes = make([]byte, 0, slabBytes)
	}
	a := len(sl.bytes)
	sl.bytes = append(sl.bytes, b...)
	return marshal.BytesVal(sl.bytes[a:len(sl.bytes):len(sl.bytes)])
}

// upsert records a newly admitted tracked call, taking ownership of rc. A
// seq already present (a call past the watermark re-recorded by
// resubmission) is replaced in place and loses its reply.
func (l *shadowLog) upsert(rc *migrate.RecordedCall) {
	if old, ok := l.bySeq[rc.Seq]; ok {
		l.entries[l.index(old)] = rc
		delete(l.replySeen, rc.Seq)
	} else {
		l.entries = append(l.entries, rc)
	}
	l.bySeq[rc.Seq] = rc
	if l.sink != nil {
		l.sink.MirrorAppend(rc)
	}
}

// reply attaches a completed reply to the entry with this seq, deep-copying
// whatever aliases the caller's frame. Unknown seqs are ignored.
func (l *shadowLog) reply(seq uint64, ret marshal.Value, outs []marshal.Value, created marshal.Handle) {
	rc, ok := l.bySeq[seq]
	if !ok {
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
	rc, ok := l.bySeq[seq]
	if !ok {
		return
	}
	l.forget(seq)
	i := l.index(rc)
	l.entries = append(l.entries[:i], l.entries[i+1:]...)
	if l.sink != nil {
		l.sink.MirrorDrop(seq)
	}
}

// index locates an entry bySeq holds; every such entry is in entries.
func (l *shadowLog) index(rc *migrate.RecordedCall) int {
	for i, e := range l.entries {
		if e == rc {
			return i
		}
	}
	panic("failover: shadow log index out of step with its entries")
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
	l.entries = kept
	if l.sink != nil {
		l.sink.MirrorPrune(h)
	}
}

func (l *shadowLog) forget(seq uint64) {
	delete(l.bySeq, seq)
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

// replayLog derives the log a recovery at watermark w replays: every kept
// entry at or below w, in true guest sequence order (entries re-recorded
// during a past resubmission sit after older kept ones).
func (l *shadowLog) replayLog(w uint64) []migrate.RecordedCall {
	out := make([]migrate.RecordedCall, 0, len(l.entries))
	for _, rc := range l.entries {
		if rc.Seq <= w && l.keeps(rc, w) {
			out = append(out, *rc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
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
			delete(l.bySeq, rc.Seq)
			delete(l.replySeen, rc.Seq)
			continue
		}
		kept = append(kept, rc)
		if rc.Seq > w {
			l.pendingRebind[rc.Seq] = struct{}{}
		}
	}
	l.entries = kept
}

// load replaces the log with the rebuild of a mirrored one at the mirror's
// watermark, then seeds the (possibly fresh) sink with what was kept so the
// next crash rehydrates too.
func (l *shadowLog) load(st *MirrorState) {
	*l = newShadowLog(l.desc, l.sink)
	for i := range st.Entries {
		rc := cloneRecorded(&st.Entries[i])
		l.entries = append(l.entries, rc)
		l.bySeq[rc.Seq] = rc
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

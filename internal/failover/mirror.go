package failover

import (
	"sync"

	"ava/internal/marshal"
	"ava/internal/migrate"
)

// LogSink receives a live stream of the guardian's shadow-log mutations so
// replay state survives a guardian (host-stack) crash, not just an API
// server crash. Every method is invoked synchronously under the guardian's
// state lock — implementations must return quickly and must never call back
// into the guardian. A remote mirror wraps MemoryMirror behind its own
// transport pump.
type LogSink interface {
	// MirrorAppend records a newly admitted tracked call. The same seq may
	// be appended again after a recovery (a modify past the watermark being
	// re-recorded by resubmission): upsert by Seq.
	MirrorAppend(rc *migrate.RecordedCall)
	// MirrorReply attaches the completed reply (Ret/Outs/Created filled in)
	// to the entry with rc.Seq.
	MirrorReply(rc *migrate.RecordedCall)
	// MirrorDrop removes the entry with this seq (failed call, failed
	// re-execution).
	MirrorDrop(seq uint64)
	// MirrorPrune removes every entry a destroyed handle obsoletes,
	// mirroring the guardian's prune rule.
	MirrorPrune(h marshal.Handle)
	// MirrorCompact removes the entries a checkpoint's compaction dropped
	// as superseded, seqs ascending. It follows that checkpoint's
	// MirrorCheckpoint; seqs is only valid during the call.
	MirrorCompact(seqs []uint64)
	// MirrorCheckpoint advances the watermark after a checkpoint commits
	// and replaces the object set with the deltas composed onto the states
	// the sink holds: exactly the handles the set names (an absent handle
	// was destroyed). All-or-nothing: false — a delta does not compose,
	// e.g. a missing or mismatched base — leaves the previous checkpoint
	// intact, and the guardian re-sends the composed set as all-Full
	// deltas, which need no base. The deltas are only valid during the
	// call.
	MirrorCheckpoint(epoch uint32, w uint64, deltas []marshal.ObjectDelta) bool
	// MirrorEpoch records an epoch advance (recovery or rehydration) and
	// the watermark it recovered to.
	MirrorEpoch(epoch uint32, w uint64)
}

// MirrorState is a point-in-time snapshot of a mirrored shadow log — the
// payload a replacement guardian rehydrates from (Config.Restore).
type MirrorState struct {
	// Entries is the mirrored shadow log in ascending guest seq order.
	Entries []migrate.RecordedCall
	// ReplySeen marks entries whose recorded reply completed.
	ReplySeen map[uint64]bool
	// W is the last committed checkpoint watermark.
	W uint64
	// Objects is the stateful-object snapshot set cut at W.
	Objects map[marshal.Handle][]byte
	// Epoch is the endpoint epoch at snapshot time.
	Epoch uint32
}

// MemoryMirror is the in-process LogSink: a deep-copying replica of the
// guardian's shadow log. In a real deployment it lives in a separate
// process (or host) from the guardian it shadows; tests and single-host
// deployments embed it directly.
type MemoryMirror struct {
	mu      sync.Mutex
	log     shadowLog
	w       uint64
	objects map[marshal.Handle][]byte
	epoch   uint32
}

// NewMemoryMirror builds an empty mirror.
func NewMemoryMirror() *MemoryMirror {
	return &MemoryMirror{log: newShadowLog(nil, nil)}
}

// MirrorAppend implements LogSink.
func (m *MemoryMirror) MirrorAppend(rc *migrate.RecordedCall) {
	cp := cloneRecorded(rc)
	m.mu.Lock()
	m.log.upsert(cp)
	m.mu.Unlock()
}

// MirrorReply implements LogSink.
func (m *MemoryMirror) MirrorReply(rc *migrate.RecordedCall) {
	m.mu.Lock()
	m.log.reply(rc.Seq, rc.Ret, rc.Outs, rc.Created)
	m.mu.Unlock()
}

// MirrorDrop implements LogSink.
func (m *MemoryMirror) MirrorDrop(seq uint64) {
	m.mu.Lock()
	m.log.drop(seq)
	m.mu.Unlock()
}

// MirrorPrune implements LogSink.
func (m *MemoryMirror) MirrorPrune(h marshal.Handle) {
	m.mu.Lock()
	m.log.prune(h)
	m.mu.Unlock()
}

// MirrorCompact implements LogSink.
func (m *MemoryMirror) MirrorCompact(seqs []uint64) {
	m.mu.Lock()
	m.log.remove(seqs)
	m.mu.Unlock()
}

// MirrorCheckpoint implements LogSink: it composes the deltas onto the
// mirror's held object states into fresh copies.
func (m *MemoryMirror) MirrorCheckpoint(epoch uint32, w uint64, deltas []marshal.ObjectDelta) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	objects, err := composeOnto(m.objects, deltas)
	if err != nil {
		return false
	}
	m.epoch = epoch
	m.w = w
	m.objects = objects
	return true
}

// MirrorEpoch implements LogSink.
func (m *MemoryMirror) MirrorEpoch(epoch uint32, w uint64) {
	m.mu.Lock()
	m.epoch = epoch
	m.w = w
	m.mu.Unlock()
}

// reset clears the mirror back to empty — the receiving end of a remote
// mirror resync, which always pushes full state right after.
func (m *MemoryMirror) reset() {
	m.mu.Lock()
	m.log = newShadowLog(nil, nil)
	m.w = 0
	m.objects = nil
	m.epoch = 0
	m.mu.Unlock()
}

// Len reports how many shadow-log entries the mirror holds.
func (m *MemoryMirror) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log.entries)
}

// State snapshots the mirror for rehydration. The returned state shares
// nothing with the mirror's internals.
func (m *MemoryMirror) State() *MirrorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MirrorState{
		W:       m.w,
		Objects: make(map[marshal.Handle][]byte, len(m.objects)),
		Epoch:   m.epoch,
	}
	m.log.state(st)
	for h, state := range m.objects {
		st.Objects[h] = append([]byte(nil), state...)
	}
	return st
}

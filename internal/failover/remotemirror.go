package failover

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ava/internal/backoff"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/transport"
)

// RemoteMirror replicates a guardian's shadow log to a mirror host over
// the mirror ops of the control envelope, so failover.Restore can rehydrate a replacement
// guardian on a different machine after the guardian's own host dies.
//
// Structure: every LogSink mutation is applied synchronously to a local
// staging MemoryMirror (keeping the fast under-the-guardian-lock contract)
// and enqueued for an asynchronous pump goroutine that batches queued ops
// into one OpMirrorBatch frame and awaits the mirror host's watermark ack. The
// staging copy makes the remote connection a durability upgrade rather
// than a liveness dependency — a dead mirror host never stalls the
// guardian — and doubles as the resync source: on every (re)connect, and
// whenever the host nacks a batch (e.g. a delta arriving before its base),
// the pump pushes a reset plus the full staging state, restoring the
// invariant that the remote mirror converges to the staging mirror.
type RemoteMirror struct {
	addr string
	vm   uint32
	name string
	bo   *backoff.Backoff
	onEv func(string)

	mu         sync.Mutex
	cond       *sync.Cond
	queue      [][]byte // encoded sub-frames awaiting replication
	needResync bool
	closed     bool
	inFlight   bool // pump is sending a batch drawn from the queue
	kick       bool // a Flush waits: perform a pending resync even with no connection

	ep transport.Endpoint // pump-owned; under mu only for Close/sever

	// replication watermark
	sent  uint64 // opseq of the last batch sent
	acked uint64 // highest opseq acked by the mirror host

	done chan struct{}
	once sync.Once

	local *MemoryMirror
}

// RemoteMirrorConfig tunes a RemoteMirror.
type RemoteMirrorConfig struct {
	// VM and Name identify the guest on the mirror host.
	VM   uint32
	Name string
	// Backoff paces reconnect attempts to the mirror host; the zero value
	// selects the failover layer's defaults. The budget bounds one
	// reconnect series — when it exhausts, the pump starts a fresh series
	// after the next mutation arrives, so a long mirror-host outage costs
	// retries, never correctness.
	Backoff backoff.Config
	// OnEvent, when set, observes connection-state transitions (for the
	// daemon's log). Must not block.
	OnEvent func(msg string)
}

// NewRemoteMirror builds a mirror replicating to the mirror listener at
// addr (an avad started with -mirror). No connection is attempted until
// the first mutation.
func NewRemoteMirror(addr string, cfg RemoteMirrorConfig) *RemoteMirror {
	rm := &RemoteMirror{
		addr:       addr,
		vm:         cfg.VM,
		name:       cfg.Name,
		bo:         backoff.New(cfg.Backoff),
		onEv:       cfg.OnEvent,
		needResync: true, // first connect pushes whatever staging holds
		done:       make(chan struct{}),
		local:      NewMemoryMirror(),
	}
	rm.cond = sync.NewCond(&rm.mu)
	go rm.pump()
	return rm
}

// State snapshots the staging mirror.
func (rm *RemoteMirror) State() *MirrorState { return rm.local.State() }

// Acked returns the replication watermark: every mutation batched at or
// below this opseq is durable on the mirror host.
func (rm *RemoteMirror) Acked() uint64 {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.acked
}

// Flush blocks until every queued mutation has been replicated and acked,
// or the timeout lapses. It reports whether the mirror drained — the hook
// tests and graceful drains use to bound divergence before a planned kill.
func (rm *RemoteMirror) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for {
		if rm.closed {
			return false
		}
		if len(rm.queue) == 0 && !rm.needResync && !rm.inFlight {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		// A pending resync is normally performed lazily on the next
		// mutation, but a flush IS a demand for durability now: kick the
		// pump so it dials and resyncs even though the queue is empty.
		if rm.needResync {
			rm.kick = true
		}
		// The pump broadcasts after every batch verdict; poll the deadline
		// at a modest cadence in case the pump is wedged on a dead dial.
		waitWithTimeout(rm.cond, 10*time.Millisecond)
	}
}

// waitWithTimeout waits on c for at most d. The caller must hold c.L.
func waitWithTimeout(c *sync.Cond, d time.Duration) {
	t := time.AfterFunc(d, c.Broadcast)
	c.Wait()
	t.Stop()
}

// Close stops the pump and drops the connection. The staging mirror stays
// readable.
func (rm *RemoteMirror) Close() {
	rm.once.Do(func() {
		rm.mu.Lock()
		rm.closed = true
		ep := rm.ep
		rm.mu.Unlock()
		close(rm.done)
		if ep != nil {
			ep.Close()
		}
		rm.cond.Broadcast()
	})
}

func (rm *RemoteMirror) event(format string, args ...any) {
	if rm.onEv != nil {
		rm.onEv(fmt.Sprintf(format, args...))
	}
}

// enqueue applies nothing itself — callers mutate the staging mirror first
// — it just hands the encoded sub-frame to the pump.
func (rm *RemoteMirror) enqueue(sub []byte) {
	rm.mu.Lock()
	if !rm.closed {
		rm.queue = append(rm.queue, sub)
	}
	rm.mu.Unlock()
	rm.cond.Broadcast()
}

// MirrorAppend implements LogSink.
func (rm *RemoteMirror) MirrorAppend(rc *migrate.RecordedCall) {
	rm.local.MirrorAppend(rc)
	rm.enqueue(subAppend(rc))
}

// MirrorReply implements LogSink.
func (rm *RemoteMirror) MirrorReply(rc *migrate.RecordedCall) {
	rm.local.MirrorReply(rc)
	rm.enqueue(subReply(rc))
}

// MirrorDrop implements LogSink.
func (rm *RemoteMirror) MirrorDrop(seq uint64) {
	rm.local.MirrorDrop(seq)
	rm.enqueue(sub(mirrorSubDrop, seq, nil))
}

// MirrorPrune implements LogSink.
func (rm *RemoteMirror) MirrorPrune(h marshal.Handle) {
	rm.local.MirrorPrune(h)
	rm.enqueue(sub(mirrorSubPrune, uint64(h), nil))
}

// MirrorCompact implements LogSink.
func (rm *RemoteMirror) MirrorCompact(seqs []uint64) {
	rm.local.MirrorCompact(seqs)
	rm.enqueue(subCompact(seqs))
}

// MirrorCheckpoint implements LogSink. All-or-nothing is judged against
// the staging mirror: if the deltas compose there, they will compose on the
// mirror host too (it converges to staging), so the guardian proceeds
// without waiting a round trip. A remote nack — the host reconnected
// mid-stream and lacks the base — triggers a full resync from staging
// instead of failing the checkpoint.
func (rm *RemoteMirror) MirrorCheckpoint(epoch uint32, w uint64, deltas []marshal.ObjectDelta) bool {
	if !rm.local.MirrorCheckpoint(epoch, w, deltas) {
		return false
	}
	rm.enqueue(subMark(mirrorSubCheckpoint, epoch, w, marshal.EncodeObjectDeltas(deltas)))
	return true
}

// MirrorEpoch implements LogSink.
func (rm *RemoteMirror) MirrorEpoch(epoch uint32, w uint64) {
	rm.local.MirrorEpoch(epoch, w)
	rm.enqueue(subMark(mirrorSubEpoch, epoch, w, nil))
}

// pump is the replication goroutine: wait for work, connect if needed,
// push one batch (or a resync), await the ack.
func (rm *RemoteMirror) pump() {
	for {
		rm.mu.Lock()
		// A pending resync with no connection is not work by itself: it is
		// performed lazily when the next mutation forces a connect (so an
		// idle VM does not spin dialing a dead mirror host) — unless a
		// Flush kicked, demanding the resync now.
		for !rm.closed && len(rm.queue) == 0 && !(rm.needResync && (rm.ep != nil || rm.kick)) {
			rm.cond.Wait()
		}
		if rm.closed {
			rm.mu.Unlock()
			return
		}
		rm.kick = false // one attempt per kick: a dead host cannot make us spin
		rm.inFlight = true
		rm.mu.Unlock()

		ok := rm.replicateOnce()

		rm.mu.Lock()
		rm.inFlight = false
		rm.mu.Unlock()
		rm.cond.Broadcast()
		if !ok {
			select {
			case <-rm.done:
				return
			default:
			}
		}
	}
}

// replicateOnce pushes the current backlog: (re)connect when necessary
// (which converts the backlog into a full resync), then one batch, then
// the ack. Returns false when the attempt failed and state was marked for
// resync.
func (rm *RemoteMirror) replicateOnce() bool {
	ep, err := rm.connect()
	if err != nil {
		rm.event("mirror %s unreachable: %v", rm.addr, err)
		return false
	}

	rm.mu.Lock()
	resync := rm.needResync
	subs := rm.queue
	rm.queue = nil
	rm.sent++
	opseq := rm.sent
	rm.mu.Unlock()
	if resync {
		// The full staging state supersedes anything queued.
		subs = resyncSubs(rm.local.State())
	}
	if len(subs) == 0 {
		return true
	}
	batch := transport.Ctl{Op: transport.OpMirrorBatch, VM: rm.vm, Seq: opseq, Payload: marshal.EncodeBatch(subs)}
	if _, err := transport.RoundTrip(ep, batch, transport.OpAck); errors.Is(err, transport.ErrRefused) {
		// The host applied what it could but could not compose everything
		// (a delta without its base). Resync from staging.
		rm.mu.Lock()
		rm.needResync = true
		rm.mu.Unlock()
		rm.event("mirror %s nacked batch %d; resyncing", rm.addr, opseq)
		return false
	} else if err != nil {
		rm.dropConn(ep, err)
		return false
	}
	rm.mu.Lock()
	rm.acked = opseq
	if resync {
		rm.needResync = false
	}
	rm.mu.Unlock()
	return true
}

// resyncSubs flattens a full MirrorState into the sub-op stream that
// reproduces it on an empty mirror.
func resyncSubs(st *MirrorState) [][]byte {
	subs := make([][]byte, 0, 2*len(st.Entries)+3)
	subs = append(subs, []byte{mirrorSubReset})
	for i := range st.Entries {
		rc := &st.Entries[i]
		subs = append(subs, subAppend(rc))
		if st.ReplySeen[rc.Seq] {
			subs = append(subs, subReply(rc))
		}
	}
	if st.W != 0 || len(st.Objects) > 0 {
		subs = append(subs, subMark(mirrorSubCheckpoint, st.Epoch, st.W, marshal.EncodeObjectDeltas(fullDeltas(st.Objects))))
	} else {
		subs = append(subs, subMark(mirrorSubEpoch, st.Epoch, st.W, nil))
	}
	return subs
}

// connect returns the live connection, dialing (with hello) under the
// backoff series when there is none. A fresh connection always forces a
// resync — the host may be a replacement process with empty state.
func (rm *RemoteMirror) connect() (transport.Endpoint, error) {
	rm.mu.Lock()
	if rm.ep != nil {
		ep := rm.ep
		rm.mu.Unlock()
		return ep, nil
	}
	rm.mu.Unlock()

	series := rm.bo.Series()
	for {
		ep, err := dialMirror(rm.addr, rm.vm, rm.name)
		if err == nil {
			rm.mu.Lock()
			if rm.closed {
				rm.mu.Unlock()
				ep.Close()
				return nil, fmt.Errorf("failover: mirror closed")
			}
			rm.ep = ep
			rm.needResync = true
			rm.mu.Unlock()
			rm.event("mirror %s connected", rm.addr)
			return ep, nil
		}
		d, ok := series.Next()
		if !ok {
			return nil, err
		}
		select {
		case <-rm.done:
			return nil, fmt.Errorf("failover: mirror closed")
		case <-time.After(d):
		}
	}
}

func (rm *RemoteMirror) dropConn(ep transport.Endpoint, err error) {
	ep.Close()
	rm.mu.Lock()
	if rm.ep == ep {
		rm.ep = nil
	}
	rm.needResync = true
	rm.mu.Unlock()
	rm.event("mirror %s connection lost (%v)", rm.addr, err)
}

// Package failover makes an AvA stack crash-survivable: it detects API
// server death, respawns or rebinds a replacement server, reconstructs the
// VM's accelerator state from the §4.3 record log plus a periodic
// checkpoint, and coordinates the guest library's transparent resubmission
// of every call the crash swallowed.
//
// The central piece is the Guardian, a per-VM interposer that sits between
// the router and the API server link. On the way south it shadows the
// record log (keyed by guest sequence number) so recovery does not depend
// on the server that just died; on the way north it watches replies to
// learn which calls completed. Every CheckpointEvery calls it quiesces the
// server with a marker barrier and snapshots stateful objects, bounding
// replay work. When the link severs (or a liveness probe times out), it
// bumps the VM's endpoint epoch, dials a replacement via the injected
// closure, replays the shadow log's keep set through migrate.Replay —
// rebinding recreated objects to the handle values the guest already holds
// — and then tells the guest to resubmit its unacked window. Live
// migration is the same path: a checkpoint, a dialer pointed at another
// host, a severed link (ava.Stack.MigrateVM). Whatever the link reaches —
// a server in this process or one on another host — replay, rebind,
// restore and checkpoint capture travel it as control calls (wireTarget),
// which the server answers through server.Context. The shadow log is one
// type (shadowLog) held by the guardian and by every MemoryMirror: it
// states the recovery keep rule once and forwards its own mutations to
// Config.Sink, so a replacement guardian rehydrated from a mirror
// (Config.Restore) resumes from the log the dead one would have rebuilt.
//
// The guardian's lifecycle is one state whose transitions, in state.go, are
// the only writers of the epoch, the checkpoint watermark and the south
// link; that file's table is the map of this package.
//
// The idempotency rule falls out of the spec's track annotations. Replay
// runs strictly up to the checkpoint watermark w, preserving the original
// order among creates, configs and modifies; everything past w flows
// through the guest's window resubmission, again in true sequence order:
//
//   - create/config at or below w: exactly once — replay rebuilt the object
//     under the guest's handle value, so a resubmitted copy is
//     short-circuited with the recorded reply.
//   - create/config past w with a recorded reply: re-executed by the
//     resubmission stream (replay cannot run them early — they may depend
//     on unreplayed modifies, e.g. a kernel created from a program built
//     after the checkpoint); the guardian rebinds the fresh handle to the
//     recorded one and the guest discards the duplicate reply.
//   - destroy: exactly once — if the original took effect and was pruned, a
//     resubmission gets a synthesized success; if it never confirmed, the
//     replayed log still contains the object and the destroy re-executes.
//   - modify/untracked: at-least-once — deterministically re-executed from
//     the checkpoint watermark in guest sequence order.
//
// Calls that cannot be resubmitted (their retained frame was trimmed, or
// recovery was abandoned) surface averr.ErrRetryable: never a silent drop.
//
// On the wire the package has no framing of its own. Toward a remote API
// server and a mirror host it makes time-bounded control exchanges
// (transport.RoundTrip: DialHost's hello, the RemoteMirror session,
// FetchMirrorState), so a peer that accepts a connection and never answers
// fails the dial instead of wedging recovery. What must keep its place in
// the call or reply order — markers, rebind/restore/snapshot calls, the
// notices to the guest (marshal.EncodeControl) — is a Call or a Reply in a
// reserved range.
package failover

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ava/internal/backoff"
	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/server"
	"ava/internal/spec"
	"ava/internal/transport"
)

// markerFunc is the function id of quiesce/liveness marker calls. It is
// never registered, so the server answers with a synchronous error reply —
// which, by the §4.2 sync-barrier contract, it can only send after every
// async issued before the marker has completed.
const markerFunc = ^uint32(0)

// Config tunes a Guardian.
type Config struct {
	// CheckpointEvery cuts a checkpoint after this many forwarded calls;
	// 0 disables periodic checkpoints (recovery then replays the whole
	// shadow log and the guest's full retained window).
	CheckpointEvery int
	// HeartbeatEvery probes server liveness with a marker when the link
	// has been idle this long; 0 disables probing, leaving detection to
	// transport errors alone.
	HeartbeatEvery time.Duration
	// LivenessTimeout bounds a marker round trip (quiesce barriers and
	// liveness probes); 0 means 2s.
	LivenessTimeout time.Duration
	// Backoff shapes respawn retries; the zero value gets defaults
	// (1ms base, 100ms cap, 2s budget).
	Backoff BackoffConfig
	// OnEpoch is called with each new endpoint epoch before the guest is
	// told to resubmit — the router uses it to fence stale frames.
	OnEpoch func(epoch uint32)
	// Clock is the time source; nil uses the wall clock.
	Clock clock.Clock
	// AdaptiveCheckpoint scales checkpoint cadence with device load
	// instead of cutting blindly every CheckpointEvery calls: a due
	// checkpoint is deferred while sync calls are in flight (the quiesce
	// barrier would stall them), until either the uncheckpointed span
	// approaches half the guest's retained window or the deferral reaches
	// 4x CheckpointEvery; the heartbeat cuts overdue checkpoints as soon
	// as the link goes idle.
	AdaptiveCheckpoint bool
	// Retain is the guest's retained-window size, bounding how far an
	// adaptive checkpoint may be deferred (the guest cannot trim frames
	// until the watermark advances); 0 means 4096, matching the guest
	// library's default.
	Retain int
	// Sink, if set, receives a synchronous stream of shadow-log mutations
	// and checkpoints so replay state survives a guardian crash. A sink
	// that also implements DeltaSink receives incremental checkpoints. See
	// LogSink.
	Sink LogSink
	// Restore, if set, rehydrates the guardian from a mirrored shadow log
	// instead of starting empty: Start loads it and then recovers as from a
	// lost link — it bumps the epoch past the mirrored one, replays the
	// restored log onto a freshly dialed link (under the backoff budget),
	// and tells the guest to resubmit everything past the restored
	// watermark.
	Restore *MirrorState
}

// Stats counts guardian activity.
type Stats struct {
	Recoveries          uint64 // links lost and rebuilt, a Config.Restore rehydration included
	Checkpoints         uint64
	FailedCheckpoints   uint64 // checkpoints begun and not committed; Guardian.CheckpointErr has the last one's reason
	ShortCircuited      uint64 // resubmitted calls answered from the shadow log
	SynthesizedDestroys uint64 // resubmitted destroys answered with synthetic success
	StaleDropped        uint64 // frames dropped for a stale epoch
	ResubmitForwarded   uint64 // resubmitted calls re-executed on the new server
	DeltaCheckpoints    uint64 // checkpoints captured incrementally (dirty ranges only)
	LastCkptBytes       uint64 // payload bytes the most recent checkpoint shipped
	LastCkptFootprint   uint64 // full object-state bytes the most recent checkpoint covers
	LastRecoveryPause   time.Duration
	LastWatermark       uint64
	LogEntries          uint64 // shadow-log entries held now (a gauge)
	Superseded          uint64 // keyed modifies compaction dropped as superseded
}

// destroyRec tracks one destroy call so the exactly-once rule can tell "took
// effect, reply lost" apart from "never confirmed".
type destroyRec struct {
	h      marshal.Handle
	pruned bool // shadow log pruned (destroy confirmed or async)
}

// tombstone stands in Guardian.destroys for a call past the watermark whose
// log entry a destroy that took effect has pruned; see pruneLocked.
var tombstone = &destroyRec{pruned: true}

// Guardian is the per-VM failover interposer between router and server.
type Guardian struct {
	desc *cava.Descriptor
	cfg  Config
	clk  clock.Clock
	bo   *backoff.Backoff

	north transport.Endpoint // toward the router/guest
	dial  func() (transport.Endpoint, error)

	northCh chan []byte   // single-writer queue toward north
	done    chan struct{} // closed by Close

	southMu sync.Mutex // serializes Sends on the current link

	lastRecv atomic.Int64 // UnixNano of the last frame received from the server

	// up is the uplink goroutine's decode scratch: one frame's call list,
	// the calls of it to forward, and the one call being admitted.
	up struct {
		calls, kept [][]byte
		call        marshal.Call
	}

	mu   sync.Mutex
	cond *sync.Cond // every state change, and the in-flight sync set draining

	// Assigned only by the transitions in state.go.
	state       state
	deadErr     error
	ckptErr     error // why the most recent uncommitted checkpoint failed
	epoch       uint32
	link        transport.Endpoint
	linkGen     int // generation of link: every adopted link gets the next one
	abort       chan struct{}
	ckptObjects map[marshal.Handle][]byte
	ckptW       uint64 // checkpoint watermark: state covers seq <= ckptW
	ckptGen     int    // linkGen when ckptObjects was committed

	// forwarding is set while the uplink is part-way through a frame —
	// calls admitted, not all sent — which a checkpoint must not cut into.
	forwarding    bool
	markerN       uint64
	markerWaiters map[uint64]chan []byte // control round trips awaiting their reply frame
	log           shadowLog              // forwards its mutations to cfg.Sink
	delta         DeltaSink              // cfg.Sink's incremental-checkpoint side, if it has one
	destroys      map[uint64]*destroyRec // by seq, since the watermark; tombstones too
	inflightSync  map[uint64]struct{}
	maxSeq        uint64 // highest guest seq forwarded south
	sinceCkpt     int
	// forceFull makes the next checkpoint capture full state: a capture
	// drains the silo's dirty ranges, so one that did not commit leaves the
	// previous checkpoint no base for the next delta.
	forceFull bool
	stats     Stats
}

// New builds a Guardian for one VM. north faces the router; dial produces a
// fresh link to an API server (spawning or rebinding a server as the
// deployment needs) and is invoked for the initial attach and after every
// failure. Call Start to dial the first link and begin pumping.
func New(desc *cava.Descriptor, north transport.Endpoint, dial func() (transport.Endpoint, error), cfg Config) *Guardian {
	if cfg.LivenessTimeout <= 0 {
		cfg.LivenessTimeout = 2 * time.Second
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	g := &Guardian{
		desc:          desc,
		cfg:           cfg,
		clk:           clk,
		bo:            backoff.New(cfg.Backoff),
		north:         north,
		dial:          dial,
		northCh:       make(chan []byte, 256),
		done:          make(chan struct{}),
		markerWaiters: make(map[uint64]chan []byte),
		abort:         make(chan struct{}),
		log:           newShadowLog(desc, cfg.Sink),
		destroys:      make(map[uint64]*destroyRec),
		inflightSync:  make(map[uint64]struct{}),
	}
	g.delta, _ = cfg.Sink.(DeltaSink)
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Start dials the initial server link and starts the pump goroutines. With
// Config.Restore set it first rehydrates from the mirrored state and then
// recovers exactly as from a lost link — epoch bump, dial under the backoff
// budget, replay, resubmission notice — so a replacement guardian resumes
// from the last checkpoint instead of losing all replay state.
func (g *Guardian) Start() error {
	if g.cfg.Restore != nil {
		g.rehydrate(g.cfg.Restore)
		if err := g.recover(0, errors.New("rehydrating from a mirrored log")); err != nil {
			return fmt.Errorf("failover: rehydration: %w", err)
		}
	} else {
		link, err := g.dial()
		if err != nil {
			return fmt.Errorf("failover: initial dial: %w", err)
		}
		if _, ok := g.adopt(link); !ok {
			return errClosed
		}
	}
	go g.northWriter()
	go g.uplink()
	if g.cfg.HeartbeatEvery > 0 {
		go g.heartbeat()
	}
	return nil
}

// Stats returns a copy of the guardian's counters.
func (g *Guardian) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.LogEntries = uint64(len(g.log.entries))
	return st
}

// Epoch returns the current endpoint epoch.
func (g *Guardian) Epoch() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// DeadErr returns the terminal error if recovery was abandoned, else nil.
func (g *Guardian) DeadErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.deadErr
}

// CheckpointErr returns why the most recent failed checkpoint failed (see
// Stats.FailedCheckpoints), nil if none has.
func (g *Guardian) CheckpointErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ckptErr
}

// KillServer severs the current server link abruptly — the SIGKILL
// equivalent used by chaos tests and E12. The guardian notices through its
// pumps and recovers as it would from a real crash.
func (g *Guardian) KillServer() {
	g.mu.Lock()
	ep := g.link
	g.mu.Unlock()
	if ep != nil {
		transport.Sever(ep)
	}
}

// CheckpointNow cuts a checkpoint synchronously (tests, pre-migration).
func (g *Guardian) CheckpointNow() error { return g.checkpoint() }

// ---------------------------------------------------------------------------
// North writer: the single goroutine that Sends toward the router.

func (g *Guardian) northWriter() {
	var failed bool
	sendCopies := transport.SendCopies(g.north)
	for {
		select {
		case <-g.done:
			return
		case frame := <-g.northCh:
			if failed {
				continue
			}
			if err := g.north.Send(frame); err != nil {
				failed = true // keep draining so pumps never block
				continue
			}
			if sendCopies {
				framebuf.Put(frame)
			}
		}
	}
}

func (g *Guardian) sendNorth(frame []byte) {
	select {
	case g.northCh <- frame:
	case <-g.done:
	}
}

// ---------------------------------------------------------------------------
// Uplink: guest/router → guardian → server.

func (g *Guardian) uplink() {
	for {
		frame, err := g.north.Recv()
		if err != nil {
			return
		}
		g.handleUplinkFrame(frame)
	}
}

func (g *Guardian) handleUplinkFrame(frame []byte) {
	// Hold new work while a checkpoint has the link quiesced or a recovery
	// is rebuilding the server.
	g.mu.Lock()
	for g.state == quiescing || g.state == recovering {
		g.cond.Wait()
	}
	link, gen := g.link, g.linkGen
	if !g.steadyLocked(gen) {
		g.mu.Unlock()
		return // drop: the guest has been told via CtrlDead (or is closing)
	}
	g.forwarding = true
	g.mu.Unlock()

	sentWhole := g.forwardFrame(link, gen, frame)
	if transport.RecvOwned(g.north) && !(sentWhole && !transport.SendCopies(link)) {
		// Tracked entries were deep-copied and any re-encoded batch copied
		// the call bodies, so the original frame can recycle unless it was
		// forwarded as-is over an ownership-transferring transport.
		framebuf.Put(frame)
	}

	g.mu.Lock()
	g.forwarding = false
	g.cond.Broadcast()
	due := g.checkpointDueLocked()
	g.mu.Unlock()
	if due {
		// A failure is endCheckpoint's to count (Stats.FailedCheckpoints);
		// the cut stays due and the next frame tries again.
		g.checkpoint()
	}
}

// forwardFrame admits one batch frame's calls and sends south those to be
// forwarded, reporting whether the frame went south as it came. Fresh calls
// travel together — as the original frame when every one of them was
// admitted. A resubmitted call goes singly, after every sync call before it
// has been answered: resubmission replays program order, the guest
// originally issued each of these calls only after every earlier sync call
// had returned, and the server's dependency tracking cannot reconstruct
// ordering edges through handles that do not exist yet (a context created
// from devices an enumeration call is still materializing). This is the
// recovery path, so latency is irrelevant next to correctness.
func (g *Guardian) forwardFrame(link transport.Endpoint, gen int, frame []byte) (sentWhole bool) {
	up := &g.up
	calls, err := marshal.DecodeBatchInto(up.calls, frame)
	if err != nil {
		return false // malformed; the server would reject it anyway
	}
	up.calls, up.kept = calls, up.kept[:0]
	whole := true
	for _, cf := range calls {
		call := &up.call
		if marshal.DecodeCallInto(call, cf) != nil {
			whole = false
			continue
		}
		resub := call.Flags&marshal.FlagResubmit != 0
		if resub && !g.drainSyncs(gen) {
			return false // link died again; the guest resubmits under the new epoch
		}
		if !g.admit(call, gen) {
			whole = false
			continue
		}
		up.kept = append(up.kept, cf)
		if resub {
			whole = false
			if !g.sendSouth(link, gen, marshal.EncodeBatch(up.kept)) {
				return false
			}
			up.kept = up.kept[:0]
		}
	}
	if len(up.kept) == 0 {
		return false
	}
	out := frame
	if !whole {
		out = marshal.EncodeBatch(up.kept)
	}
	// A failed send still reached the shadow log first, so the guest's
	// resubmission covers everything in the frame.
	g.sendSouth(link, gen, out)
	return whole
}

// checkpointDueLocked decides whether to cut a checkpoint now. With
// AdaptiveCheckpoint the cadence scales to load: while sync calls are in
// flight the quiesce barrier would stall them, so a due checkpoint is
// deferred until the uncheckpointed span approaches half the guest's
// retained window (past that, the guest cannot trim frames and recovery
// replay grows unboundedly) or the deferral reaches 4x CheckpointEvery.
// The heartbeat cuts overdue checkpoints once the link goes idle.
func (g *Guardian) checkpointDueLocked() bool {
	if g.cfg.CheckpointEvery <= 0 || g.state != serving {
		return false
	}
	if g.sinceCkpt < g.cfg.CheckpointEvery {
		return false
	}
	if !g.cfg.AdaptiveCheckpoint || len(g.inflightSync) == 0 {
		return true
	}
	retain := g.cfg.Retain
	if retain <= 0 {
		retain = 4096
	}
	if g.maxSeq-g.ckptW >= uint64(retain/2) {
		return true
	}
	return g.sinceCkpt >= 4*g.cfg.CheckpointEvery
}

// admit applies epoch fencing, the resubmission dedupe rules and shadow
// recording to one decoded call bound for the link of generation gen. It
// reports whether the call should be forwarded to the server. call is the
// uplink's scratch record: whatever admit keeps of it, it copies.
func (g *Guardian) admit(call *marshal.Call, gen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()

	if call.Epoch != g.epoch || !g.steadyLocked(gen) {
		// A frame from before the last recovery: the guest has (or will)
		// resubmit its window under the new epoch, so forwarding this copy
		// would double-execute. Dropping is safe precisely because
		// resubmission covers it. Judged under this lock, not against what
		// the uplink read before decoding: a recovery that finished in
		// between has emptied inflightSync, and nothing answers a stale
		// sync call recorded there.
		g.stats.StaleDropped++
		return false
	}

	resubmit := call.Flags&marshal.FlagResubmit != 0
	fd, known := g.desc.ByID(call.Func)

	if resubmit && known {
		if d, ok := g.destroys[call.Seq]; ok && d.pruned {
			// Either a destroy that took effect before the crash (its prune
			// is final), so the object was never recreated by replay and a
			// re-execution would fail on a dangling handle; or a tombstone:
			// a call that built or touched such an object past the
			// watermark, whose re-execution would create an object nothing
			// destroys again. The guest has the original's result — it could
			// not have named the object in a destroy otherwise — so answer
			// success without forwarding; an asynchronous call awaits no
			// reply and the drop alone is the correct outcome.
			if fd.Track.Kind == spec.TrackDestroy {
				g.stats.SynthesizedDestroys++
			}
			if call.Flags&marshal.FlagAsync == 0 {
				ret := marshal.Null()
				if fd.HasSuccess {
					ret = marshal.Int(fd.SuccessVal)
				}
				g.answerLocked(call.Seq, ret, nil)
			}
			return false
		}
		if rc := g.log.find(call.Seq); rc != nil && g.log.replySeen[call.Seq] {
			if _, rebind := g.log.pendingRebind[call.Seq]; !rebind {
				// The original completed and its reply was recorded; replay
				// already rebuilt the object under the guest's handle
				// values. Short-circuit with the recorded reply.
				g.stats.ShortCircuited++
				g.answerLocked(call.Seq, rc.Ret, rc.Outs)
				return false
			}
			// A completed create/config past the recovery watermark: replay
			// could not include it (it may depend on unreplayed modifies),
			// so it re-executes here in window order. noteReply rebinds the
			// fresh handle to the recorded one; the guest discards the
			// duplicate reply.
		}
		g.stats.ResubmitForwarded++
	}

	if known {
		switch fd.Track.Kind {
		case spec.TrackConfig, spec.TrackCreate, spec.TrackModify:
			if g.log.find(call.Seq) == nil {
				g.log.record(call)
			}
		case spec.TrackDestroy:
			if fd.TrackIdx >= 0 && fd.TrackIdx < len(call.Args) {
				// A destroy already on record is a resubmitted unconfirmed
				// one: forward it again.
				if _, seen := g.destroys[call.Seq]; !seen {
					d := &destroyRec{h: call.Args[fd.TrackIdx].Handle()}
					g.destroys[call.Seq] = d
					if call.Flags&marshal.FlagAsync != 0 {
						// No reply will confirm it; prune optimistically.
						g.pruneLocked(d)
					}
				}
			}
		}
	}
	if call.Flags&marshal.FlagAsync == 0 {
		g.inflightSync[call.Seq] = struct{}{}
	}
	if call.Seq < marshal.CtrlSeqBase && call.Seq > g.maxSeq {
		g.maxSeq = call.Seq
	}
	g.sinceCkpt++
	return true
}

// pruneLocked applies a destroy that took effect: every entry its handle
// obsoletes leaves the shadow log for good. Those past the watermark leave
// a tombstone until the next checkpoint commits: the guest still retains
// them and resubmits them after a crash, and admit would otherwise take the
// create for a new call and re-execute it under a fresh handle that the
// (synthesized) destroy never frees.
func (g *Guardian) pruneLocked(d *destroyRec) {
	for _, rc := range g.log.entries {
		if rc.Seq > g.ckptW && rc.Obsoleted(d.h) {
			g.destroys[rc.Seq] = tombstone
		}
	}
	g.log.prune(d.h)
	d.pruned = true
}

// answerLocked answers a resubmitted call that must not re-execute with a
// success reply of the guardian's own.
func (g *Guardian) answerLocked(seq uint64, ret marshal.Value, outs []marshal.Value) {
	g.syncDoneLocked(seq)
	g.sendNorth(marshal.EncodeReply(&marshal.Reply{Seq: seq, Status: marshal.StatusOK, Ret: ret, Outs: outs}))
}

// send puts one frame on link.
func (g *Guardian) send(link transport.Endpoint, frame []byte) error {
	g.southMu.Lock()
	defer g.southMu.Unlock()
	if link == nil {
		return transport.ErrClosed
	}
	return link.Send(frame)
}

// sendSouth forwards one frame of calls on gen's link, reporting whether it
// went; a failed send starts the recovery.
func (g *Guardian) sendSouth(link transport.Endpoint, gen int, frame []byte) bool {
	err := g.send(link, frame)
	if err != nil {
		g.recover(gen, err)
	}
	return err == nil
}

// ---------------------------------------------------------------------------
// Downlink: server → guardian → guest. One instance per link generation,
// started the moment the link is adopted.

func (g *Guardian) downlink(link transport.Endpoint, gen int) {
	recvOwned := transport.RecvOwned(link)
	var rep marshal.Reply // decode scratch; noteReply copies what it keeps
	for {
		frame, err := link.Recv()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				g.recover(gen, err)
			}
			return
		}
		g.lastRecv.Store(g.clk.Now().UnixNano())
		seq, ok := marshal.ReplySeq(frame)
		if !ok {
			continue
		}
		switch {
		case seq >= marshal.MarkerSeqBase:
			if g.deliverControl(seq, frame, recvOwned) {
				continue // the waiter owns the frame now
			}
		case g.noteReply(gen, seq, frame, &rep):
			g.sendNorth(frame)
			continue
		}
		if recvOwned {
			framebuf.Put(frame)
		}
	}
}

// deliverControl hands a control round trip's reply frame to its waiter, if
// it still has one, and reports whether the waiter took the frame itself.
// The waiter decodes the reply in place and puts the frame back once done
// with it: a snapshot-delta reply's ranges are read until the checkpoint
// commits, long after the downlink has moved on. A frame the downlink does
// not own (owned=false) is handed over as a pooled copy.
func (g *Guardian) deliverControl(seq uint64, frame []byte, owned bool) (took bool) {
	g.mu.Lock()
	ch, ok := g.markerWaiters[seq]
	delete(g.markerWaiters, seq)
	g.mu.Unlock()
	if !ok {
		return false
	}
	if !owned {
		frame = append(framebuf.Get(len(frame)), frame...)
	}
	ch <- frame
	return owned
}

// noteReply completes the shadow bookkeeping for one reply from gen's link
// — sync drain tracking, recorded-reply capture for creates/configs/
// modifies, destroy confirmation — and reports whether the reply goes north.
// When gen is not steady it does not, and nothing is touched: the one rule
// for whatever a link says outside its serving life, be it residue on a
// replacement still being replayed onto or a reply the dying link got out
// after its replay set was taken. The latter is the server dying one frame
// earlier: the guest resubmits the call and gets its one result from the
// replacement. Forwarded, it would hand the guest a handle the replacement
// never binds, or mark done a destroy the replayed object still needs.
func (g *Guardian) noteReply(gen int, seq uint64, frame []byte, rep *marshal.Reply) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.steadyLocked(gen) {
		return false
	}
	rc := g.log.find(seq)
	tracked := rc != nil
	_, rebind := g.log.pendingRebind[seq]
	d, destroy := g.destroys[seq]
	destroy = destroy && !d.pruned
	if !rebind {
		// For pendingRebind replies the sync-drain release waits until the
		// rebind below has been applied, so a quiesce cannot snapshot the
		// object under its fresh (not yet rebound) handle.
		g.syncDoneLocked(seq)
	}
	if !destroy && !(tracked && (rebind || !g.log.replySeen[seq])) {
		return true // nothing to learn from the body
	}
	if marshal.DecodeReplyInto(rep, frame) != nil {
		if rebind {
			g.syncDoneLocked(seq)
		}
		return true
	}
	switch {
	case destroy && rep.Status == marshal.StatusOK:
		g.pruneLocked(d)
	case destroy:
		// The destroy failed; the object lives on. Forget the record so a
		// resubmission re-executes rather than synthesizing.
		delete(g.destroys, seq)
	case rebind:
		// Re-execution of a completed create/config past the recovery
		// watermark: keep the RECORDED reply (the guest holds its handles)
		// and move the freshly created object under the recorded handle
		// values in the server's table.
		delete(g.log.pendingRebind, seq)
		var (
			pairs []server.HandlePair
			err   error
		)
		if fd, ok := g.desc.ByID(rc.Func); ok && rep.Status == marshal.StatusOK {
			pairs, err = migrate.HandlePairs(fd, rc, rep)
		}
		if rep.Status != marshal.StatusOK || err != nil {
			// Re-execution failed, or made none of the objects the guest
			// holds: they do not exist on the new server. Forget the call
			// so neither replay nor short-circuiting claims otherwise.
			g.log.drop(seq)
		}
		if len(pairs) == 0 {
			g.syncDoneLocked(seq)
			break
		}
		// The move is a control round trip on the link, whose reply only
		// this downlink can deliver — so it runs beside it. The sync-drain
		// slot is released once the move is confirmed, so the next
		// resubmitted call cannot race it.
		go g.rebind(wireTarget{g: g, link: g.link}, gen, pairs, seq)
	case rep.Status != marshal.StatusOK:
		// The call failed: it contributes no device state. Drop the
		// provisional entry so replay never re-executes a failure.
		g.log.drop(seq)
	default:
		var created marshal.Handle
		if fd, ok := g.desc.ByID(rc.Func); ok {
			created = fd.CreatedHandle(rep.Ret, rep.Outs)
		}
		g.log.reply(seq, rep.Ret, rep.Outs, created)
	}
	return true
}

// rebind moves re-executed objects back under their recorded handles, then
// releases the sync-drain slot so the resubmission stream can proceed.
// Best-effort: a vanished fresh handle or an occupied recorded slot (exotic
// handle reuse) leaves the objects under their fresh values rather than
// failing the reply path; a dead link is the pumps' problem.
func (g *Guardian) rebind(t wireTarget, gen int, pairs []server.HandlePair, seq uint64) {
	_ = t.Rebind(pairs)
	g.mu.Lock()
	if g.steadyLocked(gen) {
		g.syncDoneLocked(seq)
	}
	g.mu.Unlock()
}

// ctrlCallReply round-trips one control call on link, under a marker-space
// sequence number: the link's downlink hands the reply frame to the waiter
// registered here instead of forwarding it north. The reply is decoded in
// place, so it aliases frame; the caller puts frame back (framebuf.Put) once
// done with both, or leaves it to the collector. The wait ends early when
// the link is given up (abort) or the guardian closes.
func (g *Guardian) ctrlCallReply(link transport.Endpoint, call *marshal.Call) (rep *marshal.Reply, frame []byte, err error) {
	g.mu.Lock()
	g.markerN++
	id := marshal.MarkerSeqBase + g.markerN
	// Buffered so the downlink's delivery never blocks on a waiter that
	// timed out.
	ch := make(chan []byte, 1)
	g.markerWaiters[id] = ch
	abort := g.abort
	g.mu.Unlock()
	fail := func(err error) (*marshal.Reply, []byte, error) {
		g.mu.Lock()
		delete(g.markerWaiters, id)
		g.mu.Unlock()
		return nil, nil, err
	}
	call.Seq = id
	if err := g.send(link, marshal.EncodeBatch([][]byte{marshal.EncodeCall(call)})); err != nil {
		return fail(err)
	}
	timeout := make(chan struct{})
	stop := g.clk.AfterFunc(g.cfg.LivenessTimeout, func() { close(timeout) })
	defer stop()
	select {
	case frame = <-ch:
		rep = new(marshal.Reply)
		if err := marshal.DecodeReplyInto(rep, frame); err != nil {
			framebuf.Put(frame)
			return nil, nil, fmt.Errorf("failover: control call reply undecodable: %w", err)
		}
		return rep, frame, nil
	case <-timeout:
		return fail(fmt.Errorf("failover: control call unanswered after %v", g.cfg.LivenessTimeout))
	case <-abort:
		return fail(fmt.Errorf("failover: control call aborted by recovery"))
	case <-g.done:
		return fail(errClosed)
	}
}

// marker round-trips a marker on link: the quiesce barrier of a checkpoint
// and the heartbeat's liveness probe.
func (g *Guardian) marker(link transport.Endpoint) error {
	_, frame, err := g.ctrlCallReply(link, &marshal.Call{Func: markerFunc})
	framebuf.Put(frame)
	return err
}

// wireTarget is what recovery and checkpointing do to the server behind a
// link: recorded calls and the FuncRebind, FuncRestore, FuncSnapshot and
// FuncSnapshotDelta control calls travel as round trips to it, and it
// answers them through the same server.Context methods whether it runs in
// this process or on another host. Without the snapshot pair a recovery
// would replay tracked creates and configs but lose untracked device state
// (buffer contents mutated by kernels and writes).
type wireTarget struct {
	g    *Guardian
	link transport.Endpoint
}

// Execute implements migrate.Target; call.Seq is renumbered into marker
// space. The reply aliases its frame, which is left to the collector:
// replay reads the reply after Execute returns, and it is the recovery
// path.
func (t wireTarget) Execute(call *marshal.Call) (*marshal.Reply, error) {
	rep, _, err := t.g.ctrlCallReply(t.link, call)
	return rep, err
}

// control round-trips one control call and folds a non-OK status into err.
// The reply aliases frame, which the caller puts back.
func (t wireTarget) control(fn uint32, args []marshal.Value) (rep *marshal.Reply, frame []byte, err error) {
	rep, frame, err = t.g.ctrlCallReply(t.link, &marshal.Call{Func: fn, Args: args})
	if err == nil && rep.Status != marshal.StatusOK {
		err = errors.New(rep.Err)
	}
	return rep, frame, err
}

// Rebind implements migrate.Target: one FuncRebind carries every pair of
// the reply as [fresh, recorded], so the server applies them two-phase.
func (t wireTarget) Rebind(pairs []server.HandlePair) error {
	args := make([]marshal.Value, 0, 2*len(pairs))
	for _, p := range pairs {
		args = append(args, marshal.HandleVal(p.Fresh), marshal.HandleVal(p.Recorded))
	}
	_, frame, err := t.control(marshal.FuncRebind, args)
	framebuf.Put(frame)
	return err
}

// RestoreObject implements migrate.Target. Ret 0 means the handle no longer
// exists on the server (destroyed after the checkpoint).
func (t wireTarget) RestoreObject(h marshal.Handle, state []byte) (bool, error) {
	rep, frame, err := t.control(marshal.FuncRestore, []marshal.Value{marshal.HandleVal(h), marshal.BytesVal(state)})
	defer framebuf.Put(frame)
	if err != nil {
		return false, err
	}
	return rep.Ret.Int() == 1, nil
}

// Snapshot round-trips one FuncSnapshot: every stateful object's
// serialized state, by guest handle.
func (t wireTarget) Snapshot() (map[marshal.Handle][]byte, error) {
	rep, frame, err := t.control(marshal.FuncSnapshot, nil)
	defer framebuf.Put(frame)
	if err != nil {
		return nil, fmt.Errorf("wire snapshot: %w", err)
	}
	if rep.Ret.Kind() != marshal.KindBytes {
		return nil, errors.New("wire snapshot: reply carries no payload")
	}
	return marshal.DecodeObjectStates(rep.Ret.Bytes())
}

// SnapshotDelta round-trips one FuncSnapshotDelta: every stateful object's
// dirty ranges since the previous drain. The ranges alias frame, which the
// caller puts back once done with them. A server without delta support
// answers StatusDenied, which lands here as ok=false like any other
// failure: take a Snapshot instead.
func (t wireTarget) SnapshotDelta() (deltas []marshal.ObjectDelta, frame []byte, ok bool) {
	rep, frame, err := t.control(marshal.FuncSnapshotDelta, nil)
	if err == nil && rep.Ret.Kind() == marshal.KindBytes {
		if deltas, err = marshal.DecodeObjectDeltas(rep.Ret.Bytes()); err == nil {
			return deltas, frame, true
		}
	}
	framebuf.Put(frame)
	return nil, nil, false
}

// ---------------------------------------------------------------------------
// Checkpoints.

var errCkptAborted = errors.New("failover: checkpoint aborted by recovery")

// checkpoint quiesces the server and snapshots stateful objects, advancing
// the watermark. Between beginCheckpoint and endCheckpoint no new calls
// flow south; in-flight ones drain through the live downlink.
func (g *Guardian) checkpoint() error {
	cut, ok := g.beginCheckpoint()
	if !ok {
		return fmt.Errorf("failover: checkpoint skipped: guardian not steady")
	}
	c, err := g.snapshot(cut)
	return g.endCheckpoint(cut, c, err)
}

// snapshot quiesces cut's link and captures it.
func (g *Guardian) snapshot(cut ckptCut) (capture, error) {
	if !g.drainSyncs(cut.gen) {
		return capture{}, errCkptAborted
	}
	// Marker barrier: the server replies only after every async issued
	// before the marker has completed, so device state is now exactly the
	// effects of calls with seq <= w.
	if err := g.marker(cut.link); err != nil {
		return capture{}, err
	}
	return captureOnto(wireTarget{g: g, link: cut.link}, cut.base)
}

// captureOnto takes t's object state. An incremental capture always goes
// first (so every checkpoint advances the silo's dirty watermark), composed
// onto base, the previous committed checkpoint. This is the one base rule:
// a delta that does not compose — base holds nothing, or the wrong length,
// for an object that did not come back Full — makes the whole capture a
// full Snapshot. The holder of the base decides, not the server: the server
// never sees the base.
func captureOnto(t wireTarget, base map[marshal.Handle][]byte) (c capture, err error) {
	if c.deltas, c.frame, c.delta = t.SnapshotDelta(); c.delta {
		c.objects = make(map[marshal.Handle][]byte, len(c.deltas))
		for _, d := range c.deltas {
			state, err := marshal.ApplyObjectDelta(base[d.Handle], d)
			if err != nil {
				c.delta = false
				c.release()
				break
			}
			c.objects[d.Handle] = state
		}
	}
	if !c.delta {
		if c.objects, err = t.Snapshot(); err != nil {
			return c, fmt.Errorf("failover: checkpoint: %w", err)
		}
	}
	return c, nil
}

// drainSyncs waits until every forwarded sync call has been answered,
// reporting false if gen stopped being steady (recovery, death, close)
// meanwhile. Used to serialize resubmitted calls into original program
// order and to quiesce before a checkpoint; woken by syncDoneLocked each
// time the in-flight set empties. It waits on the condition, never on the
// clock: a sleep-poll here would advance a virtual clock and fire unrelated
// timers.
func (g *Guardian) drainSyncs(gen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.steadyLocked(gen) && len(g.inflightSync) > 0 {
		g.cond.Wait()
	}
	return g.steadyLocked(gen)
}

// syncDoneLocked retires one answered sync call and wakes resubmission
// serialization when the in-flight set drains.
func (g *Guardian) syncDoneLocked(seq uint64) {
	delete(g.inflightSync, seq)
	if len(g.inflightSync) == 0 {
		g.cond.Broadcast()
	}
}

// ---------------------------------------------------------------------------
// Liveness probing.

func (g *Guardian) heartbeat() {
	for {
		g.clk.Sleep(g.cfg.HeartbeatEvery)
		g.mu.Lock()
		over := g.state >= dead
		link, gen := g.link, g.linkGen
		steady := g.steadyLocked(gen)
		// An idle link is the cheapest moment to cut a checkpoint that was
		// deferred while the device was busy. Its marker barrier doubles as
		// the liveness probe.
		due := g.cfg.AdaptiveCheckpoint && g.checkpointDueLocked()
		g.mu.Unlock()
		if over {
			return
		}
		idle := g.clk.Now().UnixNano()-g.lastRecv.Load() >= int64(g.cfg.HeartbeatEvery)
		if !steady || !idle {
			continue
		}
		var err error
		if due {
			err = g.checkpoint()
		} else {
			// A deaf link (silent drops) produces no transport error; the
			// unanswered marker is the only failure signal.
			err = g.marker(link)
		}
		if err != nil {
			g.recover(gen, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Recovery.

// recover rebuilds the server side after gen's link failed: bump the epoch
// (fencing stale frames at the router), dial a replacement under the
// backoff budget, replay the shadow log's keep set onto it, then announce
// the new epoch north so the guest resubmits its unacked window. The error
// is why this recovery did not end in serving; only Start looks at it.
func (g *Guardian) recover(gen int, cause error) error {
	rs, ok := g.toRecovering(gen)
	if !ok {
		return nil // someone else already recovered (or is recovering) this link
	}
	start := g.clk.Now()
	if g.cfg.OnEpoch != nil {
		// Fence first: the router drops stale-epoch frames from here on,
		// so nothing sent under the old epoch can reach the new server.
		g.cfg.OnEpoch(rs.epoch)
	}
	if rs.oldEP != nil {
		transport.Sever(rs.oldEP)
	}
	err := g.dialAndReplay(rs)
	switch {
	case err == nil:
		g.toServing(rs, start)
	case !errors.Is(err, errClosed):
		err = fmt.Errorf("failover: recovery %w (cause: %w)", err, cause)
		g.toDead(err)
	}
	return err
}

// errClosed ends a dial-and-replay series whose guardian was closed.
var errClosed = errors.New("failover: guardian closed")

// dialAndReplay leaves the guardian holding a link whose server carries the
// replayed state: dial, adopt, replay rs onto the link through the
// migration replay engine — recorded calls re-execute and rebind, then
// stateful objects restore from the checkpoint — and on any failure sever
// it and retry under the backoff budget. The budget pays for the attempts
// as well as the sleeps between them: a remote server that accepts the
// connection and never answers costs one control timeout per dial.
func (g *Guardian) dialAndReplay(rs replaySet) error {
	series := g.bo.Series()
	for {
		began := g.clk.Now()
		link, err := g.dial()
		if err == nil {
			err = errClosed
			if t, ok := g.adopt(link); ok {
				err = migrate.Replay(t, g.desc, rs.log, rs.objects)
			}
			if err == nil {
				return nil
			}
			if link != nil {
				transport.Sever(link)
			}
		}
		series.Charge(g.clk.Since(began))
		d, ok := series.Next()
		if !ok {
			return fmt.Errorf("abandoned after %v (last: %w)", series.Spent(), err)
		}
		select {
		case <-g.done:
			return errClosed
		default:
		}
		g.clk.Sleep(d)
	}
}

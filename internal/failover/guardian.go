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
// — and then tells the guest to resubmit its unacked window. The replay
// engine is the one migration uses; a link with an in-process server gets
// migrate.LocalTarget, a wire-only link to another host the guardian's
// control-call target. The shadow log is one type (shadowLog) held by the
// guardian and by every MemoryMirror: it states the recovery keep rule
// once and forwards its own mutations to Config.Sink, so a replacement
// guardian rehydrated from a mirror (Config.Restore) resumes from the log
// the dead one would have rebuilt.
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
package failover

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// instead of starting empty: Start replays the restored log onto a
	// freshly dialed link (under the backoff budget), bumps the epoch past
	// the mirrored one, and tells the guest to resubmit everything past
	// the restored watermark.
	Restore *MirrorState
}

// ServerLink is one dialed attachment to an API server. EP carries frames;
// Server/Ctx/Adapter give the guardian direct access for replay and
// checkpointing (nil for links that cannot be replayed, e.g. a remote
// server reached only by wire — recovery then reconnects without replay).
type ServerLink struct {
	EP      transport.Endpoint
	Server  *server.Server
	Ctx     *server.Context
	Adapter migrate.Adapter
	// WireReplay marks a wire-only link (Server/Ctx nil) whose remote end
	// serves the marshal.FuncRebind/FuncRestore control calls: recovery
	// then replays the shadow log over the wire instead of reconnecting
	// without replay. This is how a VM fails over onto a different host.
	WireReplay bool
}

// DeltaSnapshotter is the optional incremental-capture extension of
// migrate.Adapter: an adapter that also implements it lets checkpoints
// drain each stateful object's dirty-range tracking into a delta, so
// checkpoint cost scales with the bytes written since the previous
// checkpoint rather than the object footprint. Draining advances the
// silo's dirty watermark, so a captured delta must be committed — the
// guardian forces the next checkpoint to be full whenever a delta capture
// does not commit.
type DeltaSnapshotter interface {
	SnapshotObjectDelta(obj any) (delta marshal.ObjectDelta, stateful bool, err error)
}

// Stats counts guardian activity.
type Stats struct {
	Recoveries          uint64
	Checkpoints         uint64
	ShortCircuited      uint64 // resubmitted calls answered from the shadow log
	SynthesizedDestroys uint64 // resubmitted destroys answered with synthetic success
	StaleDropped        uint64 // frames dropped for a stale epoch
	ResubmitForwarded   uint64 // resubmitted calls re-executed on the new server
	DeltaCheckpoints    uint64 // checkpoints captured incrementally (dirty ranges only)
	LastCkptBytes       uint64 // payload bytes the most recent checkpoint shipped
	LastCkptFootprint   uint64 // full object-state bytes the most recent checkpoint covers
	LastRecoveryPause   time.Duration
	LastWatermark       uint64
}

// destroyRec tracks one destroy call so the exactly-once rule can tell "took
// effect, reply lost" apart from "never confirmed".
type destroyRec struct {
	h      marshal.Handle
	pruned bool // shadow log pruned (destroy confirmed or async)
}

// Guardian is the per-VM failover interposer between router and server.
type Guardian struct {
	desc *cava.Descriptor
	cfg  Config
	clk  clock.Clock
	bo   *Backoff

	north transport.Endpoint // toward the router/guest
	dial  func() (ServerLink, error)

	northCh   chan []byte   // single-writer queue toward north
	done      chan struct{} // closed by Close
	closeOnce sync.Once

	southMu   sync.Mutex // serializes Sends on the current link
	quiesceMu sync.Mutex // serializes uplink processing vs. checkpoints

	markerMu      sync.Mutex
	markerN       uint64
	markerWaiters map[uint64]chan *marshal.Reply
	abort         chan struct{} // closed when recovery starts; remade per link

	lastRecv atomic.Int64 // UnixNano of the last frame received from the server

	mu           sync.Mutex
	cond         *sync.Cond // recovery completion
	closed       bool
	dead         bool
	deadErr      error
	epoch        uint32
	link         ServerLink
	linkGen      int
	recovering   bool
	log          shadowLog // forwards its mutations to cfg.Sink
	delta        DeltaSink // cfg.Sink's incremental-checkpoint side, if it has one
	destroys     map[uint64]*destroyRec
	inflightSync map[uint64]struct{}
	maxSeq       uint64 // highest guest seq forwarded south
	sinceCkpt    int
	ckptObjects  map[marshal.Handle][]byte
	ckptW        uint64 // checkpoint watermark: state covers seq <= ckptW
	ckptGen      int    // linkGen when ckptObjects was committed
	forceFull    bool   // next checkpoint must capture full state (uncommitted delta drain)
	stats        Stats
}

// New builds a Guardian for one VM. north faces the router; dial produces a
// fresh server link (spawning or rebinding a server as the deployment needs)
// and is invoked for the initial attach and after every failure. Call Start
// to dial the first link and begin pumping.
func New(desc *cava.Descriptor, north transport.Endpoint, dial func() (ServerLink, error), cfg Config) *Guardian {
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
		bo:            NewBackoff(cfg.Backoff),
		north:         north,
		dial:          dial,
		northCh:       make(chan []byte, 256),
		done:          make(chan struct{}),
		markerWaiters: make(map[uint64]chan *marshal.Reply),
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
// Config.Restore set, it first rehydrates the shadow log from the mirrored
// state and replays it onto the fresh link, so a replacement guardian
// resumes from the last checkpoint instead of losing all replay state.
func (g *Guardian) Start() error {
	if g.cfg.Restore != nil {
		return g.startRestored(g.cfg.Restore)
	}
	link, err := g.dial()
	if err != nil {
		return fmt.Errorf("failover: initial dial: %w", err)
	}
	g.startPumps(link)
	return nil
}

func (g *Guardian) startPumps(link ServerLink) {
	g.mu.Lock()
	g.link = link
	gen := g.linkGen
	g.mu.Unlock()
	g.lastRecv.Store(g.clk.Now().UnixNano())
	go g.northWriter()
	go g.uplink()
	go g.downlink(link, gen)
	if g.cfg.HeartbeatEvery > 0 {
		go g.heartbeat()
	}
}

// startRestored seeds the shadow log from a mirrored snapshot and brings a
// replacement server to the snapshot's watermark before any traffic flows:
// dial under the backoff budget, replay the kept log plus checkpointed
// object state, then announce a fresh epoch north so the guest resubmits
// everything past the watermark. The epoch advances past the mirrored one
// so frames the old guardian had in flight are fenced at the router.
func (g *Guardian) startRestored(st *MirrorState) error {
	g.mu.Lock()
	w := st.W
	g.epoch = st.Epoch + 1
	epoch := g.epoch
	g.log.load(st)
	g.ckptW = w
	g.maxSeq = w
	g.stats.LastWatermark = w
	g.ckptObjects = make(map[marshal.Handle][]byte, len(st.Objects))
	for h, state := range st.Objects {
		g.ckptObjects[h] = append([]byte(nil), state...)
	}
	objects := g.ckptObjects
	log := g.log.replayLog(w)
	if g.cfg.Sink != nil {
		g.cfg.Sink.MirrorCheckpoint(epoch, w, objects)
	}
	g.mu.Unlock()

	if g.cfg.OnEpoch != nil {
		g.cfg.OnEpoch(epoch)
	}
	link, err := g.dialAndReplay(log, objects)
	if err != nil {
		return fmt.Errorf("failover: rehydration %w", err)
	}
	g.startPumps(link)
	// Announce after the pumps are live: the resubmission batch this
	// triggers must find a working path.
	g.sendNorth(EncodeControl(CtrlRecover, epoch, w))
	return nil
}

// Close tears the guardian down; the current server link is severed.
func (g *Guardian) Close() {
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		link := g.link
		g.mu.Unlock()
		close(g.done)
		g.north.Close()
		if link.EP != nil {
			link.EP.Close()
		}
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
}

// Stats returns a copy of the guardian's counters.
func (g *Guardian) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Epoch returns the current endpoint epoch.
func (g *Guardian) Epoch() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// KillServer severs the current server link abruptly — the SIGKILL
// equivalent used by chaos tests and E12. The guardian notices through its
// pumps and recovers as it would from a real crash.
func (g *Guardian) KillServer() {
	g.mu.Lock()
	ep := g.link.EP
	g.mu.Unlock()
	if ep != nil {
		transport.Sever(ep)
	}
}

// CheckpointNow cuts a checkpoint synchronously (tests, pre-migration).
func (g *Guardian) CheckpointNow() error {
	g.quiesceMu.Lock()
	defer g.quiesceMu.Unlock()
	return g.checkpoint()
}

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
		g.quiesceMu.Lock()
		g.handleUplinkFrame(frame)
		g.quiesceMu.Unlock()
	}
}

func (g *Guardian) handleUplinkFrame(frame []byte) {
	// Hold new work while a recovery is rebuilding the server.
	g.mu.Lock()
	for g.recovering && !g.closed && !g.dead {
		g.cond.Wait()
	}
	if g.closed || g.dead {
		g.mu.Unlock()
		return // drop: the guest has been told via CtrlDead (or is closing)
	}
	link := g.link
	gen := g.linkGen
	g.mu.Unlock()

	calls, err := marshal.DecodeBatch(frame)
	if err != nil {
		return // malformed; the server would reject it anyway
	}
	decoded := make([]*marshal.Call, len(calls))
	hasResub := false
	for i, cf := range calls {
		call, err := marshal.DecodeCall(cf)
		if err != nil {
			continue
		}
		decoded[i] = call
		if call.Flags&marshal.FlagResubmit != 0 {
			hasResub = true
		}
	}
	kept := make([][]byte, 0, len(calls))
	allKept := true
	if hasResub {
		// Resubmission replays program order: the guest originally issued
		// each of these calls only after every earlier sync call had
		// returned, and the server's dependency tracking cannot
		// reconstruct ordering edges through handles that do not exist yet
		// (a context created from devices an enumeration call is still
		// materializing). Forward one call at a time, draining sync
		// replies in between — this is the recovery path, so latency is
		// irrelevant next to correctness.
		allKept = false
		for i, cf := range calls {
			call := decoded[i]
			if call == nil {
				continue
			}
			if !g.drainSyncs(gen) {
				break // link died again; the guest resubmits under the new epoch
			}
			if !g.admit(call, gen) {
				continue
			}
			if err := g.sendSouth(link, marshal.EncodeBatch([][]byte{cf})); err != nil {
				g.recover(gen, err)
				break
			}
		}
	} else {
		for i, cf := range calls {
			call := decoded[i]
			if call == nil {
				allKept = false
				continue
			}
			if g.admit(call, gen) {
				kept = append(kept, cf)
			} else {
				allKept = false
			}
		}
		if len(kept) > 0 {
			out := frame
			if !allKept {
				out = marshal.EncodeBatch(kept)
			}
			if err := g.sendSouth(link, out); err != nil {
				g.recover(gen, err)
				// The frame reached the shadow log before the send, so the
				// guest's resubmission covers everything in it.
			}
		}
	}
	if transport.RecvOwned(g.north) {
		// Tracked entries were deep-copied and any re-encoded batch copied
		// the call bodies, so the original frame can recycle unless it was
		// forwarded as-is over an ownership-transferring transport.
		forwardedWhole := len(kept) > 0 && allKept
		g.mu.Lock()
		south := g.link.EP
		g.mu.Unlock()
		if !(forwardedWhole && !transport.SendCopies(south)) {
			framebuf.Put(frame)
		}
	}
	g.mu.Lock()
	due := g.checkpointDueLocked()
	g.mu.Unlock()
	if due {
		g.checkpoint()
	}
}

// checkpointDueLocked decides whether to cut a checkpoint now. With
// AdaptiveCheckpoint the cadence scales to load: while sync calls are in
// flight the quiesce barrier would stall them, so a due checkpoint is
// deferred until the uncheckpointed span approaches half the guest's
// retained window (past that, the guest cannot trim frames and recovery
// replay grows unboundedly) or the deferral reaches 4x CheckpointEvery.
// The heartbeat cuts overdue checkpoints once the link goes idle.
func (g *Guardian) checkpointDueLocked() bool {
	if g.cfg.CheckpointEvery <= 0 || g.recovering || g.dead || g.closed {
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
// reports whether the call should be forwarded to the server.
func (g *Guardian) admit(call *marshal.Call, gen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()

	if call.Epoch != g.epoch || gen != g.linkGen {
		// A frame from before the last recovery: the guest has (or will)
		// resubmit its window under the new epoch, so forwarding this copy
		// would double-execute. Dropping is safe precisely because
		// resubmission covers it. Judged under this lock, not against what
		// the uplink read before decoding: a recovery that finished in
		// between has replaced inflightSync, and nothing answers a stale
		// sync call recorded there.
		g.stats.StaleDropped++
		return false
	}

	resubmit := call.Flags&marshal.FlagResubmit != 0
	fd, known := g.desc.ByID(call.Func)

	if resubmit && known {
		if d, ok := g.destroys[call.Seq]; ok && d.pruned {
			// The destroy took effect before the crash (its prune is
			// final), so the object was never recreated by replay; a
			// re-execution would fail on a dangling handle. Answer
			// success directly — unless the call was asynchronous, in
			// which case nobody awaits a reply and the drop alone is the
			// correct outcome.
			g.stats.SynthesizedDestroys++
			if call.Flags&marshal.FlagAsync == 0 {
				g.synthesizeOKLocked(call, fd)
			}
			return false
		}
		if rc, ok := g.log.bySeq[call.Seq]; ok && g.log.replySeen[call.Seq] {
			if _, rebind := g.log.pendingRebind[call.Seq]; !rebind {
				// The original completed and its reply was recorded; replay
				// already rebuilt the object under the guest's handle
				// values. Short-circuit with the recorded reply.
				g.stats.ShortCircuited++
				g.sendRecordedLocked(call.Seq, rc)
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
			if _, dup := g.log.bySeq[call.Seq]; !dup {
				g.log.upsert(&server.RecordedCall{
					Func: call.Func,
					Args: server.CloneValues(call.Args),
					Seq:  call.Seq,
				})
			}
		case spec.TrackDestroy:
			if fd.TrackIdx >= 0 && fd.TrackIdx < len(call.Args) {
				h := call.Args[fd.TrackIdx].Handle()
				if d, ok := g.destroys[call.Seq]; ok {
					_ = d // resubmitted unconfirmed destroy: forward again
				} else {
					d := &destroyRec{h: h}
					g.destroys[call.Seq] = d
					if call.Flags&marshal.FlagAsync != 0 {
						// No reply will confirm it; prune optimistically.
						g.log.prune(h)
						d.pruned = true
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

// synthesizeOKLocked answers a resubmitted, already-effective destroy with
// a success reply built from the spec's success value.
func (g *Guardian) synthesizeOKLocked(call *marshal.Call, fd *cava.FuncDesc) {
	ret := marshal.Null()
	if fd.HasSuccess {
		ret = marshal.Int(fd.SuccessVal)
	}
	rep := &marshal.Reply{Seq: call.Seq, Status: marshal.StatusOK, Ret: ret}
	g.syncDoneLocked(call.Seq)
	g.sendNorth(marshal.EncodeReply(rep))
}

// sendRecordedLocked answers a resubmitted call with its recorded reply.
func (g *Guardian) sendRecordedLocked(seq uint64, rc *server.RecordedCall) {
	rep := &marshal.Reply{Seq: seq, Status: marshal.StatusOK, Ret: rc.Ret, Outs: rc.Outs}
	g.syncDoneLocked(seq)
	g.sendNorth(marshal.EncodeReply(rep))
}

func (g *Guardian) sendSouth(link ServerLink, frame []byte) error {
	g.southMu.Lock()
	defer g.southMu.Unlock()
	if link.EP == nil {
		return transport.ErrClosed
	}
	return link.EP.Send(frame)
}

// ---------------------------------------------------------------------------
// Downlink: server → guardian → guest. One instance per link generation.

func (g *Guardian) downlink(link ServerLink, gen int) {
	recvOwned := transport.RecvOwned(link.EP)
	for {
		frame, err := link.EP.Recv()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed || errors.Is(err, transport.ErrClosed) {
				return
			}
			g.recover(gen, err)
			return
		}
		g.lastRecv.Store(g.clk.Now().UnixNano())
		if len(frame) < 8 {
			continue
		}
		seq := peekSeq(frame)
		if seq >= marshal.MarkerSeqBase {
			g.markerMu.Lock()
			ch, ok := g.markerWaiters[seq]
			if ok {
				delete(g.markerWaiters, seq)
			}
			g.markerMu.Unlock()
			if ok {
				// Deep-copy the reply before recycling the frame (DecodeReply
				// keeps references into it): a snapshot control reply carries
				// a byte payload the waiter reads after this loop moves on.
				if rep, err := marshal.DecodeReply(frame); err == nil {
					if rep.Ret.Kind == marshal.KindBytes {
						rep.Ret.Bytes = append([]byte(nil), rep.Ret.Bytes...)
					}
					rep.Outs = server.CloneValues(rep.Outs)
					ch <- rep
				}
				close(ch)
			}
			if recvOwned {
				framebuf.Put(frame)
			}
			continue
		}
		g.noteReply(seq, frame)
		g.sendNorth(frame)
	}
}

func peekSeq(frame []byte) uint64 {
	return uint64(frame[0]) | uint64(frame[1])<<8 | uint64(frame[2])<<16 | uint64(frame[3])<<24 |
		uint64(frame[4])<<32 | uint64(frame[5])<<40 | uint64(frame[6])<<48 | uint64(frame[7])<<56
}

// noteReply completes the shadow bookkeeping for one server reply: sync
// drain tracking, recorded-reply capture for creates/configs/modifies, and
// destroy confirmation.
func (g *Guardian) noteReply(seq uint64, frame []byte) {
	g.mu.Lock()
	rc, tracked := g.log.bySeq[seq]
	_, rebind := g.log.pendingRebind[seq]
	if !rebind {
		// For pendingRebind replies the sync-drain release waits until the
		// rebind below has been applied, so a quiesce cannot snapshot the
		// object under its fresh (not yet rebound) handle.
		g.syncDoneLocked(seq)
	}
	needBody := tracked && (!g.log.replySeen[seq] || rebind)
	d, isDestroy := g.destroys[seq]
	needBody = needBody || (isDestroy && !d.pruned)
	g.mu.Unlock()
	if !needBody {
		return
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil {
		if rebind {
			g.mu.Lock()
			g.syncDoneLocked(seq)
			g.mu.Unlock()
		}
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if isDestroy && !d.pruned {
		if rep.Status == marshal.StatusOK {
			g.log.prune(d.h)
			d.pruned = true
		} else {
			// The destroy failed; the object lives on. Forget the record
			// so a resubmission re-executes rather than synthesizing.
			delete(g.destroys, seq)
		}
		return
	}
	if rebind {
		// Re-execution of a completed create/config past the recovery
		// watermark: keep the RECORDED reply (the guest holds its handles)
		// and move the freshly created object under the recorded handle
		// values in the server's table.
		delete(g.log.pendingRebind, seq)
		if rep.Status != marshal.StatusOK {
			// Re-execution failed: the object no longer exists on the new
			// server. Forget it so neither replay nor short-circuiting
			// claims otherwise.
			g.syncDoneLocked(seq)
			g.log.drop(seq)
			return
		}
		fd, ok := g.desc.ByID(rc.Func)
		if !ok {
			g.syncDoneLocked(seq)
			return
		}
		pairs := migrate.HandlePairs(fd, rc, rep)
		switch {
		case g.link.Ctx != nil:
			// Best-effort: a vanished fresh handle or an occupied recorded
			// slot (exotic handle reuse) leaves the objects under their
			// fresh values rather than failing the reply path.
			_ = g.link.Ctx.Rebind(pairs)
		case g.link.WireReplay && g.link.EP != nil && len(pairs) > 0:
			// Wire-only link: the rebind travels as a FuncRebind control
			// call. The sync-drain release waits for its confirmation (in
			// wireRebind) so the next resubmitted call cannot race it.
			go g.wireRebind(g.link, pairs, seq)
			return
		}
		g.syncDoneLocked(seq)
		return
	}
	if rep.Status != marshal.StatusOK {
		// The call failed: it contributes no device state. Drop the
		// provisional entry so replay never re-executes a failure.
		g.log.drop(seq)
		return
	}
	var created marshal.Handle
	if fd, ok := g.desc.ByID(rc.Func); ok && fd.Track.Kind == spec.TrackCreate {
		created = createdHandle(fd, rep)
	}
	g.log.reply(seq, rep.Ret, rep.Outs, created)
}

// createdHandle extracts the handle a create call produced, mirroring the
// server's record path: the tracked out-parameter slot if any, else a
// handle-typed return value.
func createdHandle(fd *cava.FuncDesc, rep *marshal.Reply) marshal.Handle {
	if fd.TrackIdx >= 0 {
		slot := 0
		for i := range fd.Params {
			if !fd.Params[i].Out() {
				continue
			}
			if i == fd.TrackIdx {
				if slot < len(rep.Outs) && rep.Outs[slot].Kind == marshal.KindHandle {
					return rep.Outs[slot].Handle()
				}
				return 0
			}
			slot++
		}
		return 0
	}
	if rep.Ret.Kind == marshal.KindHandle {
		return rep.Ret.Handle()
	}
	return 0
}

// wireRebind moves re-executed objects back under their recorded handles on
// a wire-only link, then releases the sync-drain slot so the resubmission
// stream can proceed. Best-effort like the local path: a failed move leaves
// the objects under their fresh handles; a dead link is the pumps' problem.
func (g *Guardian) wireRebind(link ServerLink, pairs []server.HandlePair, seq uint64) {
	_, _ = g.ctrlCallReply(link, marshal.FuncRebind, rebindArgs(pairs))
	g.mu.Lock()
	g.syncDoneLocked(seq)
	g.mu.Unlock()
}

// rebindArgs flattens one reply's handle moves into FuncRebind's argument
// form: [fresh, recorded] pairs.
func rebindArgs(pairs []server.HandlePair) []marshal.Value {
	args := make([]marshal.Value, 0, 2*len(pairs))
	for _, p := range pairs {
		args = append(args, marshal.HandleVal(p.Fresh), marshal.HandleVal(p.Recorded))
	}
	return args
}

// ctrlCallReply round-trips one control call on a link whose downlink pump
// is running, using the marker-waiter channel to claim the full reply.
func (g *Guardian) ctrlCallReply(link ServerLink, fn uint32, args []marshal.Value) (*marshal.Reply, error) {
	g.mu.Lock()
	abort := g.abort
	g.mu.Unlock()
	id, ch := g.newMarkerWaiter()
	cleanup := func() {
		g.markerMu.Lock()
		delete(g.markerWaiters, id)
		g.markerMu.Unlock()
	}
	frame := marshal.EncodeCall(&marshal.Call{Seq: id, Func: fn, Args: args})
	if err := g.sendSouth(link, marshal.EncodeBatch([][]byte{frame})); err != nil {
		cleanup()
		return nil, err
	}
	timeout := make(chan struct{})
	stop := g.clk.AfterFunc(g.cfg.LivenessTimeout, func() { close(timeout) })
	defer stop()
	select {
	case rep := <-ch:
		if rep == nil {
			return nil, fmt.Errorf("failover: control call reply undecodable")
		}
		return rep, nil
	case <-timeout:
		cleanup()
		return nil, fmt.Errorf("failover: control call unanswered after %v", g.cfg.LivenessTimeout)
	case <-abort:
		cleanup()
		return nil, fmt.Errorf("failover: control call aborted by recovery")
	case <-g.done:
		cleanup()
		return nil, errClosed
	}
}

// wireSnapshot checkpoints the serving host's stateful objects over the
// wire: one FuncSnapshot control call returns every object's serialized
// state. It is the wire-only link's substitute for walking the handle table
// through an in-process Adapter — without it a cross-host failover could
// replay tracked creates and configs but would lose untracked device state
// (buffer contents mutated by kernels and writes).
func (g *Guardian) wireSnapshot(link ServerLink) (map[marshal.Handle][]byte, error) {
	rep, err := g.ctrlCallReply(link, marshal.FuncSnapshot, nil)
	if err != nil {
		return nil, err
	}
	if rep.Status != marshal.StatusOK {
		return nil, fmt.Errorf("failover: wire snapshot: %s", rep.Err)
	}
	if rep.Ret.Kind != marshal.KindBytes {
		return nil, fmt.Errorf("failover: wire snapshot: reply carries no payload")
	}
	return marshal.DecodeObjectStates(rep.Ret.Bytes)
}

// ---------------------------------------------------------------------------
// Checkpoints.

// checkpoint quiesces the server and snapshots stateful objects, advancing
// the watermark. The caller holds quiesceMu, so no new calls flow south
// while it runs; in-flight ones drain through the live downlink.
func (g *Guardian) checkpoint() error {
	g.mu.Lock()
	if g.recovering || g.dead || g.closed {
		g.mu.Unlock()
		return fmt.Errorf("failover: checkpoint skipped: guardian not steady")
	}
	link := g.link
	gen := g.linkGen
	w := g.maxSeq
	base := g.ckptObjects
	// Delta-capable capture always goes through the delta snapshotter (so
	// every checkpoint advances the silo's dirty watermark), but non-Full
	// deltas may only compose onto the previous committed checkpoint while
	// that base is current: same link generation and no uncommitted
	// dirty-range drain in between. Without a usable base, partial deltas
	// fall back to full per-object state.
	canCompose := base != nil && g.ckptGen == gen && !g.forceFull
	if !canCompose {
		base = nil
	}
	g.mu.Unlock()

	if !g.drainSyncs(gen) {
		return fmt.Errorf("failover: quiesce aborted by recovery")
	}
	// Marker barrier: the server replies only after every async issued
	// before the marker has completed, so device state is now exactly the
	// effects of calls with seq <= w.
	if err := g.probeMarker(link); err != nil {
		return err
	}

	var objects map[marshal.Handle][]byte
	var deltas []marshal.ObjectDelta // non-nil when the capture was incremental
	if link.Ctx != nil && link.Adapter != nil {
		if ds, ok := link.Adapter.(DeltaSnapshotter); ok {
			// Draining dirty ranges moves the silo's watermark, so if this
			// checkpoint does not commit the next one must not compose.
			g.mu.Lock()
			g.forceFull = true
			g.mu.Unlock()
			objects, deltas = g.localDeltaSnapshot(link, ds, base)
		}
		if objects == nil {
			var err error
			if objects, err = link.Ctx.SnapshotObjects(link.Adapter); err != nil {
				return fmt.Errorf("failover: checkpoint: %w", err)
			}
		}
	} else if link.WireReplay && link.EP != nil {
		// Wire-only link: the objects live on a remote host — snapshot them
		// with a control call so a cross-host failover can restore untracked
		// device state (buffer contents) on the replacement.
		g.mu.Lock()
		g.forceFull = true
		g.mu.Unlock()
		if objects, deltas = g.wireSnapshotDelta(link, base); objects == nil {
			var err error
			if objects, err = g.wireSnapshot(link); err != nil {
				return fmt.Errorf("failover: checkpoint: %w", err)
			}
		}
	}

	g.mu.Lock()
	// Recheck the full steady-state condition, not just the link generation:
	// a recovery that started after the snapshot round-trip completed has
	// already captured the OLD watermark for replay, but linkGen only
	// advances when the replacement link is installed. Committing (and
	// announcing) the new watermark here would make the guest trim retained
	// frames the in-flight replay does not cover — losing their effects on
	// the replacement server.
	if g.recovering || g.dead || g.closed || g.linkGen != gen {
		g.mu.Unlock()
		return fmt.Errorf("failover: checkpoint aborted by recovery")
	}
	g.ckptObjects = objects
	g.ckptW = w
	g.ckptGen = gen
	g.forceFull = false
	g.sinceCkpt = 0
	g.stats.Checkpoints++
	g.stats.LastWatermark = w
	var footprint uint64
	for _, state := range objects {
		footprint += uint64(len(state))
	}
	shipped := footprint
	if deltas != nil {
		shipped = 0
		for _, d := range deltas {
			shipped += uint64(d.DeltaBytes())
		}
		if canCompose {
			g.stats.DeltaCheckpoints++
		}
	}
	g.stats.LastCkptBytes = shipped
	g.stats.LastCkptFootprint = footprint
	// Destroy records at or below the watermark can never be resubmitted
	// (the guest trims its window to seq > w); drop them.
	for seq, d := range g.destroys {
		if seq <= w && d.pruned {
			delete(g.destroys, seq)
		}
	}
	epoch := g.epoch
	// A delta-capable sink applies the ranges to its own held base, so
	// mirror traffic scales with touched bytes too; a sink that cannot
	// compose (missing base) reports false and gets the composed full set
	// instead.
	if sink := g.cfg.Sink; sink != nil &&
		(deltas == nil || g.delta == nil || !g.delta.MirrorCheckpointDelta(epoch, w, deltas)) {
		sink.MirrorCheckpoint(epoch, w, objects)
	}
	g.mu.Unlock()

	g.sendNorth(EncodeControl(CtrlCheckpoint, epoch, w))
	return nil
}

// localDeltaSnapshot captures an incremental checkpoint through the
// in-process adapter: each stateful object's dirty ranges drain into a
// delta that composes onto the previous checkpoint's state for that
// handle. An object absent from the base (created since the last
// checkpoint) that does not self-report Full snapshots in full. Any
// failure returns nil — the caller falls back to a full capture, which is
// always safe because a drain only moves the silo's dirty watermark
// earlier than the full snapshot that subsumes it.
func (g *Guardian) localDeltaSnapshot(link ServerLink, ds DeltaSnapshotter, base map[marshal.Handle][]byte) (map[marshal.Handle][]byte, []marshal.ObjectDelta) {
	objects := make(map[marshal.Handle][]byte)
	deltas := make([]marshal.ObjectDelta, 0, len(base))
	ok := true
	link.Ctx.Handles.ForEach(func(h marshal.Handle, obj any) {
		if !ok {
			return
		}
		d, stateful, err := ds.SnapshotObjectDelta(obj)
		if err != nil {
			ok = false
			return
		}
		if !stateful {
			return
		}
		d.Handle = h
		if _, has := base[h]; !has && !d.Full {
			state, stateful2, serr := link.Adapter.SnapshotObject(obj)
			if serr != nil || !stateful2 {
				ok = false
				return
			}
			d = marshal.FullDelta(h, state)
		}
		state, aerr := marshal.ApplyObjectDelta(base[h], d)
		if aerr != nil {
			ok = false
			return
		}
		objects[h] = state
		deltas = append(deltas, d)
	})
	if !ok {
		return nil, nil
	}
	return objects, deltas
}

// wireSnapshotDelta captures an incremental checkpoint over the wire: one
// FuncSnapshotDelta control call returns every stateful object's dirty
// ranges, composed here onto the previous checkpoint's state. Any failure
// — including StatusDenied from a server without delta support and a
// missing base for a freshly created object — returns nil and the caller
// falls back to a full wire snapshot (safe for the same drain-subsumption
// reason as the local path).
func (g *Guardian) wireSnapshotDelta(link ServerLink, base map[marshal.Handle][]byte) (map[marshal.Handle][]byte, []marshal.ObjectDelta) {
	rep, err := g.ctrlCallReply(link, marshal.FuncSnapshotDelta, nil)
	if err != nil || rep.Status != marshal.StatusOK || rep.Ret.Kind != marshal.KindBytes {
		return nil, nil
	}
	deltas, err := marshal.DecodeObjectDeltas(rep.Ret.Bytes)
	if err != nil {
		return nil, nil
	}
	objects := make(map[marshal.Handle][]byte, len(deltas))
	for _, d := range deltas {
		state, aerr := marshal.ApplyObjectDelta(base[d.Handle], d)
		if aerr != nil {
			return nil, nil
		}
		objects[d.Handle] = state
	}
	return objects, deltas
}

// drainSyncs waits until every forwarded sync call has been answered,
// reporting false if the link changed (recovery, death, close) meanwhile.
// Used to serialize resubmitted calls into original program order and to
// quiesce before a checkpoint; woken by syncDoneLocked each time the
// in-flight set empties. It waits on the condition, never on the clock: a
// sleep-poll here would advance a virtual clock and fire unrelated timers.
func (g *Guardian) drainSyncs(gen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.linkGen != gen || g.recovering || g.closed || g.dead {
			return false
		}
		if len(g.inflightSync) == 0 {
			return true
		}
		g.cond.Wait()
	}
}

// syncDoneLocked retires one answered sync call and wakes resubmission
// serialization when the in-flight set drains.
func (g *Guardian) syncDoneLocked(seq uint64) {
	delete(g.inflightSync, seq)
	if len(g.inflightSync) == 0 {
		g.cond.Broadcast()
	}
}

// newMarkerWaiter allocates a marker-space sequence number and registers a
// reply waiter for it. The channel is buffered so the downlink's reply
// delivery never blocks on a waiter that timed out.
func (g *Guardian) newMarkerWaiter() (uint64, chan *marshal.Reply) {
	g.markerMu.Lock()
	g.markerN++
	id := marshal.MarkerSeqBase + g.markerN
	ch := make(chan *marshal.Reply, 1)
	g.markerWaiters[id] = ch
	g.markerMu.Unlock()
	return id, ch
}

// probeMarker sends one marker call south and waits for its reply within
// the liveness timeout; a recovery starting meanwhile aborts the wait.
func (g *Guardian) probeMarker(link ServerLink) error {
	_, err := g.ctrlCallReply(link, markerFunc, nil)
	return err
}

// ---------------------------------------------------------------------------
// Liveness probing.

func (g *Guardian) heartbeat() {
	for {
		g.clk.Sleep(g.cfg.HeartbeatEvery)
		select {
		case <-g.done:
			return
		default:
		}
		g.mu.Lock()
		busy := g.recovering || g.dead || g.closed
		link := g.link
		gen := g.linkGen
		g.mu.Unlock()
		if busy {
			if g.isDead() {
				return
			}
			continue
		}
		idle := g.clk.Now().UnixNano()-g.lastRecv.Load() >= int64(g.cfg.HeartbeatEvery)
		if !idle {
			continue
		}
		if g.cfg.AdaptiveCheckpoint {
			// An idle link is the cheapest moment to cut a checkpoint that
			// was deferred while the device was busy. Its marker barrier
			// doubles as the liveness probe.
			g.mu.Lock()
			overdue := g.cfg.CheckpointEvery > 0 && g.sinceCkpt >= g.cfg.CheckpointEvery &&
				!g.recovering && !g.dead && !g.closed
			g.mu.Unlock()
			if overdue {
				g.quiesceMu.Lock()
				err := g.checkpoint()
				g.quiesceMu.Unlock()
				if err != nil {
					g.recover(gen, err)
				}
				continue
			}
		}
		if err := g.probeMarker(link); err != nil {
			// A deaf link (silent drops) produces no transport error; the
			// unanswered marker is the only failure signal.
			g.recover(gen, err)
		}
	}
}

func (g *Guardian) isDead() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dead || g.closed
}

// ---------------------------------------------------------------------------
// Recovery.

// recover rebuilds the server side after gen's link failed: bump the epoch
// (fencing stale frames at the router), dial a replacement under the
// backoff budget, replay the shadow log's keep set onto it, then announce
// the new epoch north so the guest resubmits its unacked window.
func (g *Guardian) recover(gen int, cause error) {
	g.mu.Lock()
	if g.linkGen != gen || g.recovering || g.closed || g.dead {
		g.mu.Unlock()
		return // someone else already recovered (or is recovering) this link
	}
	g.recovering = true
	// Abort in-flight marker waits and sync drains immediately: their
	// replies died with the server, and a checkpoint blocked on one holds
	// quiesceMu — which would stall the uplink (and the guest's
	// resubmission) for the full liveness timeout.
	close(g.abort)
	g.cond.Broadcast()
	g.epoch++
	epoch := g.epoch
	oldEP := g.link.EP
	w := g.ckptW
	objects := g.ckptObjects
	log := g.log.replayLog(w)
	g.mu.Unlock()

	start := g.clk.Now()
	if g.cfg.OnEpoch != nil {
		// Fence first: the router drops stale-epoch frames from here on,
		// so nothing sent under the old epoch can reach the new server.
		g.cfg.OnEpoch(epoch)
	}
	if oldEP != nil {
		transport.Sever(oldEP)
	}
	link, err := g.dialAndReplay(log, objects)
	switch {
	case err == nil:
		g.finishRecovery(link, epoch, w, start)
	case !errors.Is(err, errClosed):
		g.die(fmt.Errorf("failover: recovery %w (cause: %w)", err, cause))
	}
}

// errClosed ends a dial-and-replay series whose guardian was closed.
var errClosed = errors.New("failover: guardian closed")

// dialAndReplay produces a link whose server holds the replayed state:
// dial, replay log and objects onto the fresh link, and on any failure
// sever it and retry under the backoff budget. Recovery and rehydration
// both end here.
func (g *Guardian) dialAndReplay(log []server.RecordedCall, objects map[marshal.Handle][]byte) (ServerLink, error) {
	series := g.bo.Series()
	for {
		link, err := g.dial()
		if err == nil {
			if err = g.replayOnto(link, log, objects); err == nil {
				return link, nil
			}
			if link.EP != nil {
				transport.Sever(link.EP)
			}
		}
		d, ok := series.Next()
		if !ok {
			return ServerLink{}, fmt.Errorf("abandoned after %v (last: %w)", series.Spent(), err)
		}
		select {
		case <-g.done:
			return ServerLink{}, errClosed
		default:
		}
		g.clk.Sleep(d)
	}
}

// replayOnto reconstructs accelerator state on a fresh link through the
// migration replay engine: recorded calls re-execute and rebind, then
// stateful objects restore from the checkpoint. Only the target differs —
// the link's in-process server, or control-call round trips to a remote
// one.
func (g *Guardian) replayOnto(link ServerLink, log []server.RecordedCall, objects map[marshal.Handle][]byte) error {
	var t migrate.Target
	switch {
	case link.Server != nil && link.Ctx != nil:
		t = migrate.LocalTarget{Server: link.Server, Ctx: link.Ctx, Adapter: link.Adapter}
	case link.WireReplay && link.EP != nil:
		t = wireTarget{g: g, ep: link.EP}
	default:
		return nil // wire-only link without replay support: reconnect only
	}
	// Objects destroyed after the checkpoint have no recreated handle;
	// skip their state instead of failing the whole recovery.
	return migrate.Replay(t, g.desc, log, objects, migrate.RestoreOptions{SkipUnknownObjects: true})
}

// wireTarget is the replay engine's target on a wire-only link: recorded
// calls, FuncRebind and FuncRestore travel as round trips to the remote
// server. It runs before the link's pumps start, so it owns the endpoint
// and round-trips directly. All frames use marker-space sequence numbers:
// a reply that somehow outlives this phase is dropped by the downlink's
// marker filter instead of surfacing as a phantom guest reply.
type wireTarget struct {
	g  *Guardian
	ep transport.Endpoint
}

// Execute implements migrate.Target.
func (t wireTarget) Execute(call *marshal.Call) (*marshal.Reply, error) {
	t.g.markerMu.Lock()
	t.g.markerN++
	call.Seq = marshal.MarkerSeqBase + t.g.markerN
	t.g.markerMu.Unlock()
	if err := t.ep.Send(marshal.EncodeBatch([][]byte{marshal.EncodeCall(call)})); err != nil {
		return nil, err
	}
	for {
		frame, err := t.ep.Recv()
		if err != nil {
			return nil, err
		}
		rep, err := marshal.DecodeReply(frame)
		if err != nil || rep.Seq != call.Seq {
			continue // residue from the link's previous life; skip
		}
		return rep, nil
	}
}

// control round-trips one control call and folds a non-OK status into err.
func (t wireTarget) control(fn uint32, args []marshal.Value) (*marshal.Reply, error) {
	rep, err := t.Execute(&marshal.Call{Func: fn, Args: args})
	if err == nil && rep.Status != marshal.StatusOK {
		err = errors.New(rep.Err)
	}
	return rep, err
}

// Rebind implements migrate.Target: one FuncRebind carries every pair of
// the reply, so the server applies them two-phase.
func (t wireTarget) Rebind(pairs []server.HandlePair) error {
	_, err := t.control(marshal.FuncRebind, rebindArgs(pairs))
	return err
}

// RestoreObject implements migrate.Target. Ret 0 means the handle no longer
// exists on the server (destroyed after the checkpoint).
func (t wireTarget) RestoreObject(h marshal.Handle, state []byte) (bool, error) {
	rep, err := t.control(marshal.FuncRestore, []marshal.Value{marshal.HandleVal(h), marshal.BytesVal(state)})
	if err != nil {
		return false, err
	}
	return rep.Ret.Int == 1, nil
}

// finishRecovery installs the fresh link and rebuilds shadow state to match
// exactly what was replayed.
func (g *Guardian) finishRecovery(link ServerLink, epoch uint32, w uint64, start time.Time) {
	g.mu.Lock()
	g.log.rebuild(w)
	g.inflightSync = make(map[uint64]struct{})
	g.abort = make(chan struct{})
	// The new server's state lineage only covers replayed calls (<= w);
	// resubmission re-forwards the window in seq order and maxSeq climbs
	// back as it does. A checkpoint cut mid-resubmission therefore cannot
	// claim a watermark past what has actually re-executed — which would
	// let the guest trim retained frames it still needs.
	g.maxSeq = w
	g.link = link
	g.linkGen++
	gen := g.linkGen
	g.recovering = false
	g.stats.Recoveries++
	g.stats.LastRecoveryPause = g.clk.Since(start)
	if g.cfg.Sink != nil {
		g.cfg.Sink.MirrorEpoch(epoch, w)
	}
	g.mu.Unlock()

	g.lastRecv.Store(g.clk.Now().UnixNano())
	go g.downlink(link, gen)
	// Announce after the link is live: the guest's resubmission batch must
	// find a working path.
	g.sendNorth(EncodeControl(CtrlRecover, epoch, w))
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// die abandons recovery: the guest is told to surface ErrRetryable.
func (g *Guardian) die(err error) {
	g.mu.Lock()
	g.dead = true
	g.deadErr = err
	g.recovering = false
	epoch := g.epoch
	g.mu.Unlock()
	g.cond.Broadcast()
	g.sendNorth(EncodeControl(CtrlDead, epoch, 0))
}

// DeadErr returns the terminal error if recovery was abandoned, else nil.
func (g *Guardian) DeadErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.deadErr
}

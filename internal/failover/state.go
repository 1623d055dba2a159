package failover

import (
	"time"

	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/transport"
)

// state is the guardian's lifecycle. The functions in this file are its
// transitions, and the only code that assigns a Guardian's state, epoch,
// link (with its generation), checkpoint or abort channel —
// `make state-gate` holds the package to that. Everything else reads them
// under mu and asks steadyLocked whether what it read is still current.
//
//	from                event                          to          function
//	serving             Start dials the first link     serving     adopt
//	serving             Start with Config.Restore      serving     rehydrate, then as a lost link
//	serving             checkpoint due or requested    quiescing   beginCheckpoint
//	quiescing           snapshot taken, or failed      serving     endCheckpoint
//	serving, quiescing  link error, marker unanswered  recovering  toRecovering
//	recovering          replacement dialed             recovering  adopt
//	recovering          replay succeeded               serving     toServing
//	recovering          backoff budget spent           dead        toDead
//	any                 Close                          closed      Close
type state uint8

const (
	// serving: calls flow on the link of generation linkGen. The zero value:
	// a guardian not yet started serves an absent link until Start adopts one.
	serving state = iota
	// quiescing: a checkpoint is draining, barriering and snapshotting the
	// link; Send is parked — and with it the router's uplink for this VM —
	// while replies still flow.
	quiescing
	// recovering: the link is lost, the epoch bumped and the replay set
	// taken; a replacement is being dialed and replayed. Send is parked and
	// every reply but a replay round trip's is dropped.
	recovering
	dead   // recovery was abandoned; the guest has been told CtrlDead
	closed // Close was called
)

// steadyLocked reports whether gen is the generation calls are flowing on:
// the guardian is serving or quiescing and gen names the installed link.
// It is the one spelling of "nothing has happened to my link"; Send,
// admit, noteReply, drainSyncs, a checkpoint's commit and the heartbeat ask
// it before acting on a link they read earlier.
func (g *Guardian) steadyLocked(gen int) bool {
	return g.state <= quiescing && gen == g.linkGen
}

// adopt takes up a freshly dialed link as the next generation and starts
// its downlink. Adopted while serving (Start) the link carries calls at
// once; adopted while recovering it carries only the replay's control round
// trips until toServing. ok=false means the guardian was closed meanwhile
// and the caller still owns the link.
func (g *Guardian) adopt(link transport.Endpoint) (t wireTarget, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state == closed {
		return t, false
	}
	g.link = link
	g.linkGen++
	g.abort = make(chan struct{})
	g.lastRecv.Store(g.clk.Now().UnixNano())
	if link != nil {
		go g.downlink(link, g.linkGen)
	}
	return wireTarget{g: g, link: link}, true
}

// abortLocked wakes every control round trip riding the current link: their
// replies died with it.
func (g *Guardian) abortLocked() {
	select {
	case <-g.abort:
	default:
		close(g.abort)
	}
}

// rehydrate seeds a guardian that has not started with a mirrored shadow
// log (as a recovery at the mirror's watermark would have rebuilt it),
// checkpoint and epoch. It is then exactly a guardian whose link died at
// that watermark, and Start sends it down the transitions a crash takes.
// The (possibly fresh) sink gets the checkpoint, as log.load gives it the
// entries, so the next crash rehydrates too.
func (g *Guardian) rehydrate(st *MirrorState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch = st.Epoch
	g.log.load(st)
	g.ckptW = st.W
	g.maxSeq = st.W
	g.stats.LastWatermark = st.W
	g.ckptObjects = make(map[marshal.Handle][]byte, len(st.Objects))
	for h, state := range st.Objects {
		g.ckptObjects[h] = append([]byte(nil), state...)
	}
	if g.cfg.Sink != nil {
		g.cfg.Sink.MirrorCheckpoint(st.Epoch, st.W, fullDeltas(g.ckptObjects))
	}
}

// replaySet is what a recovery rebuilds a replacement server from, fixed at
// the instant the link was declared lost.
type replaySet struct {
	epoch   uint32 // the bumped epoch
	w       uint64 // checkpoint watermark: replay covers seq <= w
	log     []migrate.RecordedCall
	objects map[marshal.Handle][]byte
	oldEP   transport.Endpoint // the lost link's endpoint, for the caller to sever
}

// toRecovering declares gen's link lost: serving|quiescing → recovering.
// The epoch advances (the caller fences the router with it), control round
// trips and sync drains on the link are aborted — a checkpoint blocked on
// one would keep Send parked for the full liveness timeout — and the
// replay set is taken. From this instant gen is not steady, so a reply
// still in flight from the dying link cannot edit a log whose replay set
// has been taken. ok=false: gen's link is not the one calls flow on — an
// older link's pump noticing its own death, a recovery already under way,
// or a replacement that died mid-replay (its round trips are aborted all
// the same, so the attempt fails and is retried).
func (g *Guardian) toRecovering(gen int) (rs replaySet, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen != g.linkGen {
		return rs, false
	}
	g.abortLocked()
	if !g.steadyLocked(gen) {
		return rs, false
	}
	g.state = recovering
	g.epoch++
	g.cond.Broadcast()
	return replaySet{
		epoch:   g.epoch,
		w:       g.ckptW,
		log:     g.log.replayLog(g.ckptW),
		objects: g.ckptObjects,
		oldEP:   g.link,
	}, true
}

// toServing ends a recovery whose replay onto the adopted link succeeded:
// recovering → serving. The shadow log is reduced to what the replay set
// left true of the replacement server, and maxSeq falls back to w: the new
// server's lineage only covers replayed calls, and maxSeq climbs back as
// resubmission re-forwards the window in seq order, so a checkpoint cut
// mid-resubmission cannot claim a watermark past what has re-executed
// (which would let the guest trim retained frames it still needs). The
// announce goes north last: the resubmission it triggers needs the path up.
func (g *Guardian) toServing(rs replaySet, started time.Time) {
	g.mu.Lock()
	if g.state != recovering {
		g.mu.Unlock()
		return // closed meanwhile
	}
	g.log.rebuild(rs.w)
	clear(g.inflightSync)
	g.maxSeq = rs.w
	g.state = serving
	g.stats.Recoveries++
	g.stats.LastRecoveryPause = g.clk.Since(started)
	if g.cfg.Sink != nil {
		g.cfg.Sink.MirrorEpoch(rs.epoch, rs.w)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	g.sendNorth(marshal.EncodeControl(marshal.CtrlRecover, rs.epoch, rs.w))
}

// toDead abandons a recovery: recovering → dead. The guest is told to
// surface ErrRetryable.
func (g *Guardian) toDead(err error) {
	g.mu.Lock()
	if g.state != recovering {
		g.mu.Unlock()
		return
	}
	g.state = dead
	g.deadErr = err
	epoch := g.epoch
	g.cond.Broadcast()
	g.mu.Unlock()
	g.sendNorth(marshal.EncodeControl(marshal.CtrlDead, epoch, 0))
}

// Close tears the guardian down from any state: its north end closes (a
// parked Send returns, Recv reports ErrClosed) and so does the current
// server link.
func (g *Guardian) Close() {
	g.mu.Lock()
	if g.state == closed {
		g.mu.Unlock()
		return
	}
	g.state = closed
	link := g.link
	close(g.done)
	g.cond.Broadcast()
	g.mu.Unlock()
	g.north.Close()
	if link != nil {
		link.Close()
	}
}

// ckptCut is one checkpoint attempt: the link it quiesces, the watermark it
// will claim, and as base the previous committed checkpoint if a delta may
// compose onto it — same link generation, no uncommitted dirty-range drain
// since.
type ckptCut struct {
	link transport.Endpoint
	gen  int
	w    uint64
	base map[marshal.Handle][]byte
}

// beginCheckpoint parks Send for a checkpoint: serving → quiescing.
// It waits out a frame Send is part-way through forwarding (the
// marker must not overtake calls already counted in w) and a checkpoint
// already running; in any other state there is nothing to checkpoint. The
// capture drains the silo's dirty ranges, so the next checkpoint is forced
// full until this one commits.
func (g *Guardian) beginCheckpoint() (cut ckptCut, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.state == quiescing || (g.state == serving && g.forwarding) {
		g.cond.Wait()
	}
	if g.state != serving {
		return cut, false
	}
	g.state = quiescing
	cut = ckptCut{link: g.link, gen: g.linkGen, w: g.maxSeq}
	if g.ckptGen == cut.gen && !g.forceFull {
		cut.base = g.ckptObjects
	}
	g.forceFull = true
	return cut, true
}

// capture is what a checkpoint took of the quiesced link: every stateful
// object, the deltas they were composed from, and whether those composed
// onto a base (delta) or were full state. The deltas' ranges alias frame,
// the control reply that carried them, until release puts it back.
type capture struct {
	objects map[marshal.Handle][]byte
	deltas  []marshal.ObjectDelta
	delta   bool
	frame   []byte
}

// release recycles the reply frame the deltas alias; they are unusable
// afterwards.
func (c *capture) release() {
	framebuf.Put(c.frame)
	c.frame, c.deltas = nil, nil
}

// endCheckpoint commits or abandons cut: quiescing → serving. It commits
// only if cut's link is still the steady one: a recovery that began after
// the snapshot round trip took the OLD watermark for its replay set, and
// announcing the new one would make the guest trim retained frames that
// replay does not cover. Such a recovery also owns the state now; only a
// cut that still does hands it back. A commit compacts the shadow log at
// the new watermark (shadowLog.compact), after the sink has the
// checkpoint. The capture's reply frame goes back to the pool last, once
// the sink has composed the ranges it aliases.
func (g *Guardian) endCheckpoint(cut ckptCut, c capture, err error) error {
	defer c.release()
	g.mu.Lock()
	steady := g.steadyLocked(cut.gen)
	if steady {
		g.state = serving
		g.cond.Broadcast()
	}
	if err != nil || !steady {
		if err == nil {
			err = errCkptAborted
		}
		g.stats.FailedCheckpoints++
		g.ckptErr = err
		g.mu.Unlock()
		return err
	}
	w := cut.w
	g.ckptObjects = c.objects
	g.ckptW = w
	g.ckptGen = cut.gen
	g.forceFull = false
	g.sinceCkpt = 0
	g.stats.Checkpoints++
	g.stats.LastWatermark = w
	var footprint, shipped uint64
	for _, state := range c.objects {
		footprint += uint64(len(state))
	}
	for _, d := range c.deltas {
		shipped += uint64(d.DeltaBytes())
	}
	if c.delta {
		g.stats.DeltaCheckpoints++
	}
	g.stats.LastCkptBytes = shipped
	g.stats.LastCkptFootprint = footprint
	// Destroy records (and tombstones) at or below the watermark can never
	// be resubmitted (the guest trims its window to seq > w); drop them.
	for seq, d := range g.destroys {
		if seq <= w && d.pruned {
			delete(g.destroys, seq)
		}
	}
	epoch := g.epoch
	// The sink composes the deltas onto its own held base, so mirror
	// traffic scales with touched bytes too; a sink that cannot (missing
	// base) refuses them and gets the composed set as all-Full deltas.
	if sink := g.cfg.Sink; sink != nil && !sink.MirrorCheckpoint(epoch, w, c.deltas) {
		sink.MirrorCheckpoint(epoch, w, fullDeltas(c.objects))
	}
	g.stats.Superseded += uint64(g.log.compact(w))
	g.mu.Unlock()
	g.sendNorth(marshal.EncodeControl(marshal.CtrlCheckpoint, epoch, w))
	return nil
}

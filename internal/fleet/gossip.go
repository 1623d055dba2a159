package fleet

import (
	"sync"
	"time"

	"ava/internal/clock"
)

// Registry replication: avaregd instances gossip their TTL'd member tables
// to each other so a VM can keep resolving peers after any single registry
// dies. The protocol is anti-entropy push — each registry periodically
// sends its full table (tombstones included) to every peer, and the
// receiver merges with last-write-wins on announce time. Full-table push
// is deliberate: fleets are tens of hosts, a table is a few KB, and full
// state makes convergence independent of delivery order or lost rounds.

// GossipEntry is one member record as replicated between registries: the
// member, the time of its last write (announce heartbeat or deregister),
// and whether that write was a deregister.
type GossipEntry struct {
	Member Member    `json:"member"`
	Beat   time.Time `json:"beat"`
	Gone   bool      `json:"gone,omitempty"`
}

// Export snapshots the registry's table for a gossip push, tombstones
// included — a peer must learn about deregisters, not just arrivals.
func (r *Registry) Export() []GossipEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GossipEntry, 0, len(r.members))
	for _, e := range r.members {
		out = append(out, GossipEntry{Member: e.m, Beat: e.beat, Gone: e.gone})
	}
	return out
}

// Merge folds a peer's exported table into this registry: for each entry,
// the copy with the newer beat wins (ties keep the local copy — both
// copies carry the same write). Returns how many entries were adopted.
// Entries already older than the TTL at merge time are still recorded —
// Live ignores them and Expire reclaims them — so two registries that
// merge the same dead entry agree it is dead rather than disagreeing on
// whether it exists.
func (r *Registry) Merge(entries []GossipEntry) int {
	n := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ge := range entries {
		id := ge.Member.ID
		if id == "" {
			continue
		}
		if local, ok := r.members[id]; ok && !ge.Beat.After(local.beat) {
			continue
		}
		r.members[id] = &entry{m: ge.Member, beat: ge.Beat, gone: ge.Gone}
		n++
	}
	return n
}

// GossipPeer is the push target a Gossiper replicates to — *Client
// implements it over the wire, *Registry in process.
type GossipPeer interface {
	Gossip(entries []GossipEntry) error
}

// Gossip merges entries directly, making *Registry a GossipPeer for
// in-process tests and single-binary deployments.
func (r *Registry) Gossip(entries []GossipEntry) error {
	r.Merge(entries)
	return nil
}

// Gossiper pushes one registry's table to a set of peers on an interval.
// Push failures are silently retried next round: a dead peer is exactly
// the condition gossip exists to ride out.
type Gossiper struct {
	reg   *Registry
	peers []GossipPeer
	every time.Duration
	clk   clock.Clock
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// StartGossip begins replicating reg to peers. every <= 0 selects
// DefaultTTL/4 (the announcer's heartbeat cadence — member freshness at a
// peer lags by at most one gossip interval); clk nil uses the wall clock.
func StartGossip(reg *Registry, peers []GossipPeer, every time.Duration, clk clock.Clock) *Gossiper {
	if every <= 0 {
		every = DefaultTTL / 4
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	g := &Gossiper{reg: reg, peers: peers, every: every, clk: clk, done: make(chan struct{})}
	g.wg.Add(1)
	go g.loop()
	return g
}

func (g *Gossiper) loop() {
	defer g.wg.Done()
	for clock.Wait(g.clk, g.every, g.done) {
		g.PushNow()
	}
}

// PushNow pushes the current table to every peer immediately.
func (g *Gossiper) PushNow() {
	entries := g.reg.Export()
	if len(entries) == 0 {
		return
	}
	for _, p := range g.peers {
		p.Gossip(entries)
	}
}

// Close stops the gossip loop and waits for it to exit.
func (g *Gossiper) Close() {
	g.once.Do(func() { close(g.done) })
	g.wg.Wait()
}

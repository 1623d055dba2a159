// Package fleet is the tiny discovery service behind cross-host failover:
// a registry of live avad API servers, fed by periodic announcements and
// queried by the failover dialer when it must move a VM's serving host.
//
// The registry is deliberately minimal — an in-process table with a
// heartbeat TTL and a health-ranked Live query — because the paper's
// disaggregated deployment (§4.1) only needs to answer one question: which
// peer avad can take over this VM's API right now? Four ops on the
// transport's control envelope (announce, deregister, gossip, live —
// ServeConn/DialRegistry in wire.go; JSON only for the bodies) let real
// avad processes announce over TCP, each request one time-bounded
// transport.RoundTrip; in-process deployments and tests use the Registry
// directly. Both sides of that split implement Locator, so the failover
// dialer does not care which it was given.
package fleet

import (
	"sort"
	"sync"
	"time"

	"ava/internal/clock"
)

// DefaultTTL is how long an announcement stays live without a refresh.
// Announcers default to re-announcing every DefaultTTL/4.
const DefaultTTL = 3 * time.Second

// Member is one announced avad instance.
type Member struct {
	// ID names the instance uniquely across the fleet (avad defaults to
	// its advertised address).
	ID string `json:"id"`
	// Addr is the address peers dial to reach the instance's API server.
	Addr string `json:"addr"`
	// API is the accelerator API the instance serves ("opencl", "mvnc",
	// "qat"); Live matches on it so a VM never fails over onto a host
	// serving a different silo.
	API string `json:"api"`
	// Load is the instance's self-reported load (active VM connections);
	// Live ranks lighter hosts first.
	Load int `json:"load"`
	// QueueDepth is the instance's summed server dispatch backlog across
	// its VMs at the last announcement — calls admitted but not yet
	// executing. It breaks Load ties in ranking: two hosts with the same
	// VM count are not equally loaded if one has a queue.
	QueueDepth int `json:"queue_depth,omitempty"`
	// BytesInFlight is the data-plane payload volume the instance moved
	// over its last heartbeat interval — a coarse throughput-pressure
	// signal that breaks QueueDepth ties.
	BytesInFlight uint64 `json:"bytes_in_flight,omitempty"`
}

// Score folds the load signals into one scalar for skew math: each active
// VM counts 1, queue backlog adds fractionally (64 queued calls weigh like
// one VM), and recent bytes add up to one VM per GiB moved. Ranking itself
// compares the signals lexicographically (Load, QueueDepth, BytesInFlight,
// ID) so equal-load ordering stays exactly deterministic; Score is for the
// rebalancer's EWMA, where a scalar is needed.
func (m Member) Score() float64 {
	return float64(m.Load) + float64(m.QueueDepth)/64 + float64(m.BytesInFlight)/(1<<30)
}

// Less is the fleet's health ranking: lexicographic on the load signals,
// with the member ID as the final tie-break so the order is deterministic
// — a placement policy re-running the same query must pick the same host.
// Registries sort Live by it and sched.LeastLoad ranks by it.
func Less(a, b Member) bool {
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	if a.QueueDepth != b.QueueDepth {
		return a.QueueDepth < b.QueueDepth
	}
	if a.BytesInFlight != b.BytesInFlight {
		return a.BytesInFlight < b.BytesInFlight
	}
	return a.ID < b.ID
}

// Status is a member plus its registry-side liveness bookkeeping.
type Status struct {
	Member
	// LastBeat is when the member last announced.
	LastBeat time.Time
	// Live reports whether the member's TTL had not expired at query time.
	Live bool
}

// Locator is the discovery surface the failover dialer consumes: the
// in-process Registry and the TCP Client both implement it.
type Locator interface {
	// Announce upserts a member and refreshes its heartbeat.
	Announce(m Member) error
	// Deregister removes a member immediately (graceful shutdown).
	Deregister(id string) error
	// Live returns the live members serving api, health-ranked (lightest
	// load first, queue depth then bytes-in-flight then member ID breaking
	// ties — fully deterministic), excluding the given member IDs.
	Live(api string, exclude ...string) ([]Member, error)
}

type entry struct {
	m    Member
	beat time.Time
	// gone marks a tombstone: the member deregistered at beat. The record
	// is kept (instead of deleted) so gossip peers that have not yet seen
	// the deregister cannot resurrect the member with an older announce —
	// last-write-wins needs the write to exist. Tombstones expire like
	// ordinary entries.
	gone bool
}

// Registry is the in-process fleet table.
type Registry struct {
	clk clock.Clock
	ttl time.Duration

	mu      sync.Mutex
	members map[string]*entry
}

// NewRegistry builds a registry. ttl <= 0 selects DefaultTTL; clk nil uses
// the wall clock.
func NewRegistry(ttl time.Duration, clk clock.Clock) *Registry {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Registry{clk: clk, ttl: ttl, members: make(map[string]*entry)}
}

// Announce implements Locator. An announce revives a tombstoned member:
// the new beat is a newer write than the deregister.
func (r *Registry) Announce(m Member) error {
	if m.ID == "" {
		m.ID = m.Addr
	}
	now := r.clk.Now()
	r.mu.Lock()
	if e, ok := r.members[m.ID]; ok {
		e.m = m
		e.beat = now
		e.gone = false
	} else {
		r.members[m.ID] = &entry{m: m, beat: now}
	}
	r.mu.Unlock()
	return nil
}

// Deregister implements Locator. The member disappears from queries
// immediately but leaves a TTL'd tombstone behind so gossip peers cannot
// resurrect it with a pre-deregister announce.
func (r *Registry) Deregister(id string) error {
	now := r.clk.Now()
	r.mu.Lock()
	if e, ok := r.members[id]; ok {
		e.gone = true
		e.beat = now
	}
	r.mu.Unlock()
	return nil
}

// Live implements Locator: live members serving api, health-ranked by the
// deterministic less ordering, excluding the given IDs. The ranking never
// consults heartbeat freshness — two equally loaded hosts must sort the
// same way on every query, or admission-time placement would scatter
// depending on announce arrival order.
func (r *Registry) Live(api string, exclude ...string) ([]Member, error) {
	skip := make(map[string]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	now := r.clk.Now()
	r.mu.Lock()
	ms := make([]Member, 0, len(r.members))
	for id, e := range r.members {
		if skip[id] || e.gone || e.m.API != api || now.Sub(e.beat) > r.ttl {
			continue
		}
		ms = append(ms, e.m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return Less(ms[i], ms[j]) })
	return ms, nil
}

// Members returns every registered member with its liveness status
// (expired entries included), sorted by ID — the fleet's admin view.
func (r *Registry) Members() []Status {
	now := r.clk.Now()
	r.mu.Lock()
	out := make([]Status, 0, len(r.members))
	for _, e := range r.members {
		if e.gone {
			continue
		}
		out = append(out, Status{Member: e.m, LastBeat: e.beat, Live: now.Sub(e.beat) <= r.ttl})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Expire drops every member whose TTL has lapsed and returns how many were
// dropped. Queries already ignore expired members; Expire just reclaims
// the table space (long-running registries call it opportunistically).
// Lapsed tombstones are reclaimed too but not counted — they stopped being
// members at deregister time.
func (r *Registry) Expire() int {
	now := r.clk.Now()
	n := 0
	r.mu.Lock()
	for id, e := range r.members {
		if now.Sub(e.beat) > r.ttl {
			delete(r.members, id)
			if !e.gone {
				n++
			}
		}
	}
	r.mu.Unlock()
	return n
}

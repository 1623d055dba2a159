// Package sched is the cluster-scheduling subsystem: it closes the loop
// from discovery to placement. The fleet registry (internal/fleet) knows
// which hosts are alive and how loaded they are; this package decides
// where VMs should run — at admission time, when a stack attaches a VM
// through a registry locator (Policy), and continuously afterwards, when
// a background rebalancer detects sustained load skew and live-migrates
// VMs off hot hosts through the guardian's checkpoint/migrate machinery
// (Rebalancer).
//
// Both halves record their choices in a Decision log the control plane
// exposes (GET /sched), so an operator can always answer "why is this VM
// on that host?".
package sched

import (
	"sort"
	"sync"
	"time"

	"ava/internal/fleet"
)

// Policy orders placement candidates for one VM. Implementations must be
// deterministic: given the same members and the same observed history,
// the same VM ranks candidates identically — placement decisions must be
// reproducible from the decision log.
type Policy interface {
	// Name identifies the policy in decision logs ("least-load", ...).
	Name() string
	// Rank orders live members best-first for placing vm. The input
	// arrives in the registry's health ranking (lightest load first,
	// deterministic tie-break) and may be reordered in place.
	Rank(vm uint32, ms []fleet.Member) []fleet.Member
}

// LeastLoad places every VM on the lightest live member. The registry's
// Live ranking already orders members by fleet.Less (Load, QueueDepth,
// BytesInFlight, ID); LeastLoad re-sorts by the same order so the policy
// stays correct even over a locator with weaker ordering — placing through
// the policy and walking the registry's answer pick the same host.
type LeastLoad struct{}

// Name implements Policy.
func (LeastLoad) Name() string { return "least-load" }

// Rank implements Policy.
func (LeastLoad) Rank(_ uint32, ms []fleet.Member) []fleet.Member {
	sort.Slice(ms, func(i, j int) bool { return fleet.Less(ms[i], ms[j]) })
	return ms
}

// SpreadByVMCount balances its own placements across hosts: it tracks how
// many VMs it has placed on each member and ranks the least-used first,
// falling back to the load ranking between equally used hosts. Unlike
// LeastLoad it does not depend on announced load catching up between two
// back-to-back placements, so a burst of attachments spreads immediately
// instead of piling onto the host whose announcement is stalest.
type SpreadByVMCount struct {
	mu     sync.Mutex
	counts map[string]int    // placements per member ID
	where  map[uint32]string // current member per VM
}

// NewSpreadByVMCount builds the spread policy with empty history.
func NewSpreadByVMCount() *SpreadByVMCount {
	return &SpreadByVMCount{counts: make(map[string]int), where: make(map[uint32]string)}
}

// Name implements Policy.
func (p *SpreadByVMCount) Name() string { return "spread-by-vm-count" }

// Rank implements Policy.
func (p *SpreadByVMCount) Rank(vm uint32, ms []fleet.Member) []fleet.Member {
	p.mu.Lock()
	counts := make(map[string]int, len(ms))
	for _, m := range ms {
		counts[m.ID] = p.counts[m.ID]
	}
	if cur, ok := p.where[vm]; ok {
		// The VM's own current placement must not count against its
		// destination candidates — a re-dial back to the same host is not
		// a second placement.
		if counts[cur] > 0 {
			counts[cur]--
		}
	}
	p.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if counts[ms[i].ID] != counts[ms[j].ID] {
			return counts[ms[i].ID] < counts[ms[j].ID]
		}
		return fleet.Less(ms[i], ms[j])
	})
	return ms
}

// Observe records that vm now runs on member id — called by the stack on
// every successful dial so the spread counts follow reality (including
// failover moves the policy did not initiate).
func (p *SpreadByVMCount) Observe(vm uint32, id string) {
	p.mu.Lock()
	if prev, ok := p.where[vm]; ok {
		if prev == id {
			p.mu.Unlock()
			return
		}
		if p.counts[prev] > 0 {
			p.counts[prev]--
		}
	}
	p.where[vm] = id
	p.counts[id]++
	p.mu.Unlock()
}

// Forget drops a detached VM from the spread counts.
func (p *SpreadByVMCount) Forget(vm uint32) {
	p.mu.Lock()
	if prev, ok := p.where[vm]; ok {
		if p.counts[prev] > 0 {
			p.counts[prev]--
		}
		delete(p.where, vm)
	}
	p.mu.Unlock()
}

// Decision is one scheduling choice: a placement, a failover landing, or
// a rebalance migration.
type Decision struct {
	// Seq orders decisions within one log.
	Seq uint64 `json:"seq"`
	// Time is when the decision was made.
	Time time.Time `json:"time"`
	// Kind is "place" (admission), "failover" (a dial that landed on a
	// new host after a failure), "rebalance" (skew-driven migration), or
	// "manual" (operator-triggered via the control plane).
	Kind string `json:"kind"`
	// VM is the guest the decision moved.
	VM uint32 `json:"vm"`
	// From is the previous host ("" at admission).
	From string `json:"from,omitempty"`
	// To is the chosen host.
	To string `json:"to"`
	// Policy names the policy that ranked the candidates.
	Policy string `json:"policy,omitempty"`
	// Reason is a short human-readable justification.
	Reason string `json:"reason,omitempty"`
}

// logCap bounds the decision ring; old decisions fall off the front.
const logCap = 256

// Log is a bounded, concurrency-safe ring of scheduling decisions.
type Log struct {
	mu   sync.Mutex
	seq  uint64
	buf  []Decision
	head int // index of the oldest entry when full
	full bool
}

// NewLog builds an empty decision log.
func NewLog() *Log { return &Log{buf: make([]Decision, 0, logCap)} }

// Add appends a decision, stamping its sequence number.
func (l *Log) Add(d Decision) {
	l.mu.Lock()
	l.seq++
	d.Seq = l.seq
	if l.full {
		l.buf[l.head] = d
		l.head = (l.head + 1) % logCap
	} else {
		l.buf = append(l.buf, d)
		if len(l.buf) == logCap {
			l.full = true
		}
	}
	l.mu.Unlock()
}

// Decisions returns the retained decisions, oldest first.
func (l *Log) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]Decision(nil), l.buf...)
	}
	out := make([]Decision, 0, logCap)
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	return out
}

// Len returns how many decisions the log retains.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

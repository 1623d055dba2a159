package hv

import (
	"sync"
	"time"

	"ava/internal/clock"
)

// Scheduler orders forwarded calls across contending VMs at function-call
// granularity (§4.3). Admit blocks the forwarding path of a VM until its
// call may proceed; Done reports the call's cost so the scheduler can
// account usage. Costs are the specification's resource-usage
// approximations — e.g. estimated device time for a kernel launch — which
// the paper conjectures are accurate enough for useful performance
// isolation.
type Scheduler interface {
	// Admit blocks until vm may forward a call with the given estimated
	// cost (nanoseconds of device time, or an abstract cost unit) and
	// guest-stamped priority (higher is more urgent; schedulers without a
	// priority policy ignore it). It reports whether it parked the call,
	// rather than letting it through at once: only a parked call spent
	// time in the scheduler, so only then does the router read the clock
	// again to measure its stall and stamp its admission.
	Admit(vm VMID, cost int64, pri uint8) (parked bool)
	// Done reports that the admitted call finished; measured, if positive,
	// replaces the estimate in the VM's accounting.
	Done(vm VMID, cost int64, measured int64)
	// Usage returns the accumulated normalized usage for a VM.
	Usage(vm VMID) int64
}

// LoadIntrospector is implemented by schedulers that can report admission
// pressure: the number of calls parked at the gate and a recent-stall
// signal (an exponentially weighted average of how long granted calls
// waited). The router's load shedder consults it when deciding to deny
// low-priority calls under overload.
type LoadIntrospector interface {
	QueueDepth() int
	RecentStall() time.Duration
}

// FIFOScheduler admits every call immediately: the no-policy baseline.
type FIFOScheduler struct {
	mu    sync.Mutex
	usage map[VMID]int64
}

// NewFIFOScheduler returns the pass-through scheduler.
func NewFIFOScheduler() *FIFOScheduler {
	return &FIFOScheduler{usage: make(map[VMID]int64)}
}

// Admit implements Scheduler; it never parks a call.
func (s *FIFOScheduler) Admit(vm VMID, cost int64, pri uint8) bool { return false }

// Done implements Scheduler.
func (s *FIFOScheduler) Done(vm VMID, cost int64, measured int64) {
	if measured > 0 {
		cost = measured
	}
	s.mu.Lock()
	s.usage[vm] += cost
	s.mu.Unlock()
}

// Usage implements Scheduler.
func (s *FIFOScheduler) Usage(vm VMID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage[vm]
}

// FairScheduler implements weighted device-time fair sharing. Each VM
// accumulates cost normalized by its weight; a VM is blocked while it is
// more than window ahead of the furthest-behind VM that currently has work
// waiting. This is start-time fair queuing degenerated to one queue slot
// per VM, which matches the router's per-VM serial forwarding.
type FairScheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	vms    map[VMID]*fairVM
	all    []*fairVM // the map's values, for the per-admit scan
	window int64
}

// fairVM is one VM's scheduling state; entries are created on first sight
// and never removed, so the admit path updates a struct in place instead of
// inserting into and deleting from maps on every call.
type fairVM struct {
	weight  int64
	usage   int64 // normalized accumulated cost
	waiting int   // calls blocked in or about to pass Admit
}

// NewFairScheduler creates a fair scheduler. window is the allowed
// normalized-usage lead (e.g. 10ms of device time) before a VM is held
// back; weights default to 1.
func NewFairScheduler(window time.Duration) *FairScheduler {
	s := &FairScheduler{vms: make(map[VMID]*fairVM), window: int64(window)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// vm returns (creating on first use) a VM's state. Called with s.mu held.
func (s *FairScheduler) vm(id VMID) *fairVM {
	v, ok := s.vms[id]
	if !ok {
		v = &fairVM{weight: 1}
		s.vms[id] = v
		s.all = append(s.all, v)
	}
	return v
}

// SetWeight assigns a VM's share weight (higher = larger share).
func (s *FairScheduler) SetWeight(vm VMID, w int64) {
	if w <= 0 {
		w = 1
	}
	s.mu.Lock()
	s.vm(vm).weight = w
	s.mu.Unlock()
}

// minWaitingUsage returns the lowest normalized usage among VMs with work
// pending, excluding self; ok is false if self is the only contender.
func (s *FairScheduler) minWaitingUsage(self *fairVM) (int64, bool) {
	found := false
	var m int64
	for _, v := range s.all {
		if v == self || v.waiting <= 0 {
			continue
		}
		if !found || v.usage < m {
			m, found = v.usage, true
		}
	}
	return m, found
}

// Admit implements Scheduler. Fair sharing is priority-blind: pri is
// ignored (use PriorityScheduler for urgency ordering). It parks the call
// while the VM is more than the window ahead of a contender.
func (s *FairScheduler) Admit(vm VMID, cost int64, pri uint8) (parked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.vm(vm)
	v.waiting++
	for {
		minU, contended := s.minWaitingUsage(v)
		if !contended || v.usage <= minU+s.window {
			break
		}
		s.cond.Wait()
		parked = true
	}
	// Charge the estimate up front so concurrent admits see it.
	v.usage += cost / v.weight
	return parked
}

// Done implements Scheduler.
func (s *FairScheduler) Done(vm VMID, cost int64, measured int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.vm(vm)
	if measured > 0 && measured != cost {
		// Replace the estimate with the measurement.
		v.usage += (measured - cost) / v.weight
	}
	if v.waiting > 0 {
		v.waiting--
	}
	s.cond.Broadcast()
}

// Usage implements Scheduler.
func (s *FairScheduler) Usage(vm VMID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.vms[vm]; ok {
		return v.usage
	}
	return 0
}

// PriorityScheduler serializes admission through a single gate and serves
// waiters strictly by priority — highest guest-stamped priority first, FIFO
// within a level. To bound starvation, a waiter's effective priority is
// aged upward by one level per agingQuantum of waiting, so a long-parked
// low-priority call eventually outranks fresh high-priority arrivals.
// Effective priorities are evaluated against the scheduler's clock each
// time the gate opens, which keeps aging deterministic on a virtual clock.
type PriorityScheduler struct {
	clk   clock.Clock
	aging time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	usage  map[VMID]int64
	queue  []*priWaiter
	seq    uint64
	busy   bool
	recent time.Duration // EWMA of grant wait times
}

// priWaiter is one call parked at the admission gate.
type priWaiter struct {
	vm      VMID
	pri     uint8
	seq     uint64 // arrival order, tiebreak within a priority level
	parked  time.Time
	granted bool
}

// NewPriorityScheduler creates a strict-priority scheduler. agingQuantum
// is the waiting time that promotes a parked call by one priority level
// (0 disables aging); a nil clock selects the wall clock.
func NewPriorityScheduler(clk clock.Clock, agingQuantum time.Duration) *PriorityScheduler {
	if clk == nil {
		clk = clock.NewReal()
	}
	s := &PriorityScheduler{clk: clk, aging: agingQuantum, usage: make(map[VMID]int64)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// effective returns w's aged priority as of now.
func (s *PriorityScheduler) effective(w *priWaiter, now time.Time) int {
	p := int(w.pri)
	if s.aging > 0 {
		p += int(now.Sub(w.parked) / s.aging)
	}
	if p > 255 {
		p = 255
	}
	return p
}

// grantLocked opens the gate for the best waiter, if any. Called with
// s.mu held and the gate free.
func (s *PriorityScheduler) grantLocked() {
	if s.busy || len(s.queue) == 0 {
		return
	}
	now := s.clk.Now()
	best := 0
	for i := 1; i < len(s.queue); i++ {
		pi, pb := s.effective(s.queue[i], now), s.effective(s.queue[best], now)
		if pi > pb || (pi == pb && s.queue[i].seq < s.queue[best].seq) {
			best = i
		}
	}
	w := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	w.granted = true
	s.busy = true
	// Fold this grant's park time into the recent-stall EWMA (alpha 1/8);
	// zero-wait grants decay it, so the signal tracks current pressure.
	s.recent += (now.Sub(w.parked) - s.recent) / 8
	s.cond.Broadcast()
}

// Admit implements Scheduler. It parks the call unless the gate was free
// and granted it at once.
func (s *PriorityScheduler) Admit(vm VMID, cost int64, pri uint8) (parked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	w := &priWaiter{vm: vm, pri: pri, seq: s.seq, parked: s.clk.Now()}
	s.queue = append(s.queue, w)
	s.grantLocked()
	parked = !w.granted
	for !w.granted {
		s.cond.Wait()
	}
	return parked
}

// Done implements Scheduler.
func (s *PriorityScheduler) Done(vm VMID, cost int64, measured int64) {
	if measured > 0 {
		cost = measured
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage[vm] += cost
	s.busy = false
	s.grantLocked()
}

// Usage implements Scheduler.
func (s *PriorityScheduler) Usage(vm VMID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage[vm]
}

// Waiting returns the number of calls parked at the gate (tests use this
// to sequence contention deterministically).
func (s *PriorityScheduler) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// QueueDepth implements LoadIntrospector: calls parked at the gate now.
func (s *PriorityScheduler) QueueDepth() int { return s.Waiting() }

// RecentStall implements LoadIntrospector: an exponentially weighted
// average of how long recently granted calls waited at the gate.
func (s *PriorityScheduler) RecentStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recent
}

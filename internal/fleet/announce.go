package fleet

import (
	"sync"
	"time"

	"ava/internal/clock"
)

// Announcer keeps one member's registration alive: it announces
// immediately, re-announces on a heartbeat interval (carrying the current
// self-reported load), and deregisters on Close — the graceful half of the
// liveness contract, with the TTL covering crashes.
type Announcer struct {
	loc   Locator
	clk   clock.Clock
	every time.Duration

	mu      sync.Mutex
	m       Member
	sampler func(*Member)

	// send serializes pushes against Close, so no announcement — heartbeat
	// or AnnounceNow — can land after the deregistration and resurrect a
	// member that just left.
	send    sync.Mutex
	done    chan struct{}
	stopped chan struct{} // closed when the heartbeat goroutine has exited
	once    sync.Once
}

// StartAnnouncer registers m with loc and starts the heartbeat goroutine.
// every <= 0 selects DefaultTTL/4; clk nil uses the wall clock. Announce
// failures are retried on the next beat (the registry may be restarting),
// never fatal.
func StartAnnouncer(loc Locator, m Member, every time.Duration, clk clock.Clock) *Announcer {
	if every <= 0 {
		every = DefaultTTL / 4
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	if m.ID == "" {
		m.ID = m.Addr
	}
	a := &Announcer{loc: loc, clk: clk, every: every, m: m,
		done: make(chan struct{}), stopped: make(chan struct{})}
	a.loc.Announce(m)
	go a.loop()
	return a
}

func (a *Announcer) loop() {
	defer close(a.stopped)
	for clock.Wait(a.clk, a.every, a.done) {
		a.AnnounceNow()
	}
}

// sample snapshots the member record, letting the sampler refresh the
// drifting load signals (queue depth, bytes moved) first.
func (a *Announcer) sample() Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sampler != nil {
		a.sampler(&a.m)
	}
	return a.m
}

// SetSampler installs a hook the announcer calls under its lock just
// before each announcement (heartbeat or AnnounceNow) to refresh the
// member's load fields in place. It must not block: it runs on the
// heartbeat path.
func (a *Announcer) SetSampler(fn func(*Member)) {
	a.mu.Lock()
	a.sampler = fn
	a.mu.Unlock()
}

// AnnounceNow pushes the current member record immediately instead of
// waiting for the next heartbeat tick — the load just changed abruptly
// (a VM migrated away, a drain completed) and placement decisions made
// against the stale figure would pile onto the wrong host.
func (a *Announcer) AnnounceNow() {
	a.send.Lock()
	defer a.send.Unlock()
	select {
	case <-a.done:
		return
	default:
	}
	a.loc.Announce(a.sample())
}

// Close stops the heartbeat, waits for its goroutine to exit, and then
// deregisters the member.
func (a *Announcer) Close() {
	a.once.Do(func() {
		close(a.done)
		<-a.stopped
		a.send.Lock()
		defer a.send.Unlock()
		a.loc.Deregister(a.m.ID)
	})
}

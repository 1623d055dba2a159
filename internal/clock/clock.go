// Package clock provides real and virtual time sources.
//
// Every component in the AvA runtime that needs time (the DMA model in
// devsim, the rate limiter and schedulers in hv, the profiling counters in
// the API server) takes a Clock rather than calling time.Now directly, so
// tests can run on a deterministic virtual clock while benchmarks and the
// real daemons run on the wall clock.
package clock

import (
	"sync"
	"time"
)

// Clock is a time source.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time.
	Sleep(d time.Duration)
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// AfterFunc arranges for f to run once, in its own goroutine, after d
	// of this clock's time has elapsed. The returned stop function
	// prevents the firing if it has not happened yet and reports whether
	// it did so. The API server uses this for call-deadline cancellation
	// signals; on a Virtual clock the timer fires from Advance/Set, which
	// keeps cancellation deterministic in tests.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real is the wall clock.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// spinThreshold is the longest delay serviced by busy-waiting. The Go
// runtime's timer granularity is far coarser than the microsecond-scale
// device latencies (kernel launch, DMA setup) the hardware model charges,
// so short waits spin — as real device drivers do for doorbell latencies.
const spinThreshold = 100 * time.Microsecond

// Sleep implements Clock with microsecond precision.
func (*Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d <= spinThreshold {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return
	}
	time.Sleep(d)
}

// Since implements Clock.
func (*Real) Since(t time.Time) time.Duration { return time.Since(t) }

// AfterFunc implements Clock via the runtime timer.
func (*Real) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	t := time.AfterFunc(d, f)
	return t.Stop
}

// Virtual is a deterministic clock that only advances when told to.
// Sleep advances the clock rather than blocking, which makes timing-dependent
// logic (DMA transfer cost, token-bucket refill) fully deterministic in tests.
// Virtual is safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*vtimer
}

// vtimer is one pending AfterFunc on a virtual clock.
type vtimer struct {
	when    time.Time
	f       func()
	stopped bool
	fired   bool
}

// NewVirtual returns a virtual clock starting at an arbitrary fixed epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Unix(1_000_000_000, 0)}
}

// NewVirtualAt returns a virtual clock starting at t.
func NewVirtualAt(t time.Time) *Virtual { return &Virtual{now: t} }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock by advancing virtual time immediately.
func (v *Virtual) Sleep(d time.Duration) { v.Advance(d) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Advance moves the clock forward by d. Negative d is ignored.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.fireDueLocked()
	v.mu.Unlock()
}

// Set moves the clock to t if t is in the future of the clock.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
		v.fireDueLocked()
	}
	v.mu.Unlock()
}

// AfterFunc implements Clock. Timers fire (each in its own goroutine, like
// time.AfterFunc) when Advance or Set moves the clock to or past their
// expiry; a timer whose delay is <= 0 fires immediately.
func (v *Virtual) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	v.mu.Lock()
	t := &vtimer{when: v.now.Add(d), f: f}
	if !t.when.After(v.now) {
		t.fired = true
		v.mu.Unlock()
		go f()
		return func() bool { return false }
	}
	v.timers = append(v.timers, t)
	v.mu.Unlock()
	return func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if t.fired || t.stopped {
			return false
		}
		t.stopped = true
		return true
	}
}

// fireDueLocked launches every timer whose expiry has been reached and
// prunes finished entries. Called with v.mu held.
func (v *Virtual) fireDueLocked() {
	kept := v.timers[:0]
	for _, t := range v.timers {
		switch {
		case t.stopped:
		case !t.when.After(v.now):
			t.fired = true
			go t.f()
		default:
			kept = append(kept, t)
		}
	}
	v.timers = kept
}

// Wait blocks for d of c's time or until done closes, whichever comes
// first, and reports whether the full interval elapsed. Periodic loops
// wait with it instead of Sleep, so stopping one never sits out the rest
// of an interval (or, on a Virtual clock, an Advance that never comes).
func Wait(c Clock, d time.Duration, done <-chan struct{}) bool {
	wake := make(chan struct{})
	stop := c.AfterFunc(d, func() { close(wake) })
	select {
	case <-done:
		stop()
		return false
	case <-wake:
		// Both ready: done wins, so a stopped loop never runs one more beat.
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
}

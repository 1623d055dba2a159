// Package backoff provides the jittered exponential retry pacing shared by
// every layer that redials a lost peer: guardian respawn attempts, guest
// resubmission and overload retries, fleet registry clients and remote
// mirror pumps all draw from this one shape, so a storm of retrying
// callers decorrelates instead of thundering in lock step.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Config shapes one backoff source.
type Config struct {
	// Base is the first retry delay; 0 means 1ms.
	Base time.Duration
	// Cap bounds a single delay; 0 means 100ms.
	Cap time.Duration
	// Budget bounds the total time of one retry series — the delays it
	// slept plus what the attempts themselves were charged (Charge); once
	// a series has spent it, Next reports exhaustion and the caller must
	// surface the failure. 0 means 2s.
	Budget time.Duration
	// Seed seeds the jitter source for reproducible schedules in tests;
	// the zero seed is used as-is.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Base <= 0 {
		c.Base = time.Millisecond
	}
	if c.Cap <= 0 {
		c.Cap = 100 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = 2 * time.Second
	}
	return c
}

// Backoff is a shared jitter source; Series hands out independent retry
// series that draw jitter from it.
type Backoff struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a backoff source from cfg.
func New(cfg Config) *Backoff {
	cfg = cfg.withDefaults()
	return &Backoff{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Series starts one retry series (one call's retries, or one recovery's
// respawn attempts).
func (b *Backoff) Series() *Series {
	return &Series{b: b, next: b.cfg.Base}
}

// Series tracks the state of one retry series against the shared budget.
type Series struct {
	b     *Backoff
	next  time.Duration // current exponential step (pre-jitter)
	spent time.Duration
}

// Next returns the delay to sleep before the next retry, or ok=false when
// the series' budget is exhausted. Delays are "equal jitter": half the
// exponential step plus a uniformly random half, doubling up to the cap.
func (s *Series) Next() (time.Duration, bool) {
	if s.spent >= s.b.cfg.Budget {
		return 0, false
	}
	step := s.next
	s.next *= 2
	if s.next > s.b.cfg.Cap {
		s.next = s.b.cfg.Cap
	}
	half := step / 2
	s.b.mu.Lock()
	d := half + time.Duration(s.b.rng.Int63n(int64(half)+1))
	s.b.mu.Unlock()
	if remaining := s.b.cfg.Budget - s.spent; d > remaining {
		d = remaining
	}
	s.spent += d
	return d, true
}

// Charge counts d, the time a failed attempt itself took (a dial that ran
// into its timeout), against the series' budget: a peer that makes every
// attempt slow must not stretch the series to attempts × timeout.
func (s *Series) Charge(d time.Duration) {
	if d > 0 {
		s.spent += d
	}
}

// Spent returns the total delay consumed by the series so far.
func (s *Series) Spent() time.Duration { return s.spent }

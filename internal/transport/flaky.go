package transport

import (
	"math/rand"
	"sync"
)

// FlakyConfig tunes the Flaky fault-injection wrapper. All faults are drawn
// from a rand.Rand seeded with Seed, so a given config reproduces the same
// fault schedule run after run — the property `make chaos` relies on.
type FlakyConfig struct {
	// Seed seeds the fault schedule; the zero seed is used as-is.
	Seed int64
	// DropProb is the probability that a sent frame is silently discarded
	// (the peer never sees it and no error is reported — only liveness
	// probing can detect the loss).
	DropProb float64
	// DropAfterSends, when > 0, silently discards every frame after the
	// first N sends: a link that goes deaf without an error signal.
	DropAfterSends int
	// SeverAfterSends, when > 0, severs the underlying link abruptly after
	// the first N sends — the scripted SIGKILL.
	SeverAfterSends int
}

// Flaky wraps an Endpoint with seeded fault injection: probabilistic frame
// drops and a scripted abrupt sever. It preserves the
// inner endpoint's frame-ownership semantics, so it can stand in for any
// transport in the stack.
type Flaky struct {
	inner Endpoint
	cfg   FlakyConfig

	mu      sync.Mutex
	rng     *rand.Rand
	sends   int
	severed bool
}

// NewFlaky wraps inner with the configured fault schedule.
func NewFlaky(inner Endpoint, cfg FlakyConfig) *Flaky {
	return &Flaky{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (f *Flaky) Send(frame []byte) error {
	f.mu.Lock()
	if f.severed {
		f.mu.Unlock()
		return ErrSevered
	}
	f.sends++
	if f.cfg.SeverAfterSends > 0 && f.sends > f.cfg.SeverAfterSends {
		f.severed = true
		f.mu.Unlock()
		Sever(f.inner)
		return ErrSevered
	}
	drop := f.cfg.DropAfterSends > 0 && f.sends > f.cfg.DropAfterSends
	if !drop && f.cfg.DropProb > 0 {
		drop = f.rng.Float64() < f.cfg.DropProb
	}
	f.mu.Unlock()
	if drop {
		// The frame vanishes without an error: the failure mode only a
		// liveness probe can observe.
		return nil
	}
	return f.inner.Send(frame)
}

func (f *Flaky) Recv() ([]byte, error) {
	f.mu.Lock()
	severed := f.severed
	f.mu.Unlock()
	if severed {
		return nil, ErrSevered
	}
	return f.inner.Recv()
}

func (f *Flaky) Close() error { return f.inner.Close() }

// Sever implements Severer, cutting the wrapped link abruptly.
func (f *Flaky) Sever() error {
	f.mu.Lock()
	f.severed = true
	f.mu.Unlock()
	return Sever(f.inner)
}

// SendCopies implements FrameOwnership. A dropped frame is never retained,
// so the inner transport's answer stays accurate either way.
func (f *Flaky) SendCopies() bool { return SendCopies(f.inner) }

// RecvOwned implements FrameOwnership.
func (f *Flaky) RecvOwned() bool { return RecvOwned(f.inner) }

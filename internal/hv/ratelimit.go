// Package hv is the hypervisor-level half of AvA: the VM abstraction and
// the invocation router.
//
// The router is what distinguishes AvA from prior API-remoting systems that
// forward calls over plain RPC and lose interposition (§2). Every forwarded
// call crosses the router, where the hypervisor can verify it against the
// API specification, enforce sharing policy (token-bucket rate limits on
// call and data rates, §4.3's "command rate-limiting"), schedule it against
// contending VMs using the specification's resource estimates, and observe
// it (interceptors) — without understanding the accelerator underneath.
package hv

import (
	"sync"
	"time"

	"ava/internal/clock"
)

// TokenBucket is a standard token-bucket limiter over an injectable clock.
// A zero rate means unlimited.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	clk    clock.Clock
}

// NewTokenBucket creates a bucket that refills at rate tokens/second up to
// burst. The bucket starts full.
func NewTokenBucket(rate float64, burst float64, clk clock.Clock) *TokenBucket {
	if clk == nil {
		clk = clock.NewReal()
	}
	if burst <= 0 {
		burst = rate
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: clk.Now(), clk: clk}
}

// Unlimited reports whether the bucket imposes no limit.
func (tb *TokenBucket) Unlimited() bool { return tb == nil || tb.rate <= 0 }

func (tb *TokenBucket) refill(now time.Time) {
	dt := now.Sub(tb.last).Seconds()
	if dt > 0 {
		tb.tokens += dt * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// Reserve withdraws n tokens, going negative if necessary, and returns how
// long the caller must wait before proceeding so the long-run rate holds.
// Oversized requests (n > burst) are still admitted after a proportional
// delay — a single huge DMA must not wedge the VM forever.
func (tb *TokenBucket) Reserve(n float64) time.Duration {
	if tb.Unlimited() || n <= 0 {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(tb.clk.Now())
	tb.tokens -= n
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}

// Wait reserves n tokens and sleeps out the required delay on the bucket's
// clock.
func (tb *TokenBucket) Wait(n float64) time.Duration {
	d := tb.Reserve(n)
	if d > 0 {
		tb.clk.Sleep(d)
	}
	return d
}

// Tokens returns the current token count (after refill), for tests and
// introspection.
func (tb *TokenBucket) Tokens() float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(tb.clk.Now())
	return tb.tokens
}

// reserveDelay returns the wait n tokens would require at time now, without
// withdrawing them. charge withdraws unconditionally. Together they let
// PriorityBuckets compose a peek-then-charge decision across several
// buckets atomically (under its own lock) from a single clock reading.
//
// Both run without tb.mu: PriorityBuckets owns its buckets outright and
// serializes every access to them under its own lock.
func (tb *TokenBucket) reserveDelay(now time.Time, n float64) time.Duration {
	if tb.Unlimited() || n <= 0 {
		return 0
	}
	tb.refill(now)
	if t := tb.tokens - n; t < 0 {
		return time.Duration(-t / tb.rate * float64(time.Second))
	}
	return 0
}

func (tb *TokenBucket) charge(now time.Time, n float64) {
	if tb.Unlimited() || n <= 0 {
		return
	}
	tb.refill(now)
	tb.tokens -= n
}

// NumPriorityBands is how many priority bands the router's QoS machinery
// distinguishes. The call header's 0-255 priority byte maps onto bands by
// its two top bits, so band boundaries stay stable however guests pick
// byte values within a class.
const NumPriorityBands = 4

// PriorityBand maps a guest-stamped priority byte to its band index
// (0 = lowest, NumPriorityBands-1 = highest).
func PriorityBand(pri uint8) int { return int(pri >> 6) }

// DefaultPriorityShares is the per-band split of a VM's rate when the VM
// config does not override it: higher bands reserve larger floors.
var DefaultPriorityShares = [NumPriorityBands]float64{0.1, 0.2, 0.3, 0.4}

// PriorityBuckets is a two-level token-bucket hierarchy: a shared bucket
// enforcing the VM's aggregate rate, plus one reserved sub-bucket per
// priority band ("floor"). A call admitted within its band's floor never
// waits on the shared bucket, so saturating low-priority traffic cannot
// stall high-priority calls on the same VM; a band past its floor may
// borrow whatever aggregate headroom the shared bucket has spare, which
// keeps the hierarchy work-conserving. A band with a zero share has no
// floor and always settles against the shared bucket.
type PriorityBuckets struct {
	mu     sync.Mutex
	shared *TokenBucket
	sub    [NumPriorityBands]*TokenBucket // nil where the share is zero
}

// NewPriorityBuckets creates the hierarchy. rate<=0 means unlimited; an
// all-zero shares array selects DefaultPriorityShares, and shares are
// normalized so floors always partition the aggregate rate.
func NewPriorityBuckets(rate, burst float64, shares [NumPriorityBands]float64, clk clock.Clock) *PriorityBuckets {
	pb := &PriorityBuckets{}
	if rate <= 0 {
		return pb
	}
	var sum float64
	for _, s := range shares {
		if s > 0 {
			sum += s
		}
	}
	if sum <= 0 {
		shares, sum = DefaultPriorityShares, 1
	}
	if burst <= 0 {
		burst = rate
	}
	pb.shared = NewTokenBucket(rate, burst, clk)
	for i, s := range shares {
		if s <= 0 {
			continue
		}
		sb := s / sum * burst
		if sb < 1 {
			sb = 1 // a floor that cannot hold one call is no floor at all
		}
		pb.sub[i] = NewTokenBucket(s/sum*rate, sb, clk)
	}
	return pb
}

// Unlimited reports whether the hierarchy imposes no limit.
func (pb *PriorityBuckets) Unlimited() bool { return pb == nil || pb.shared.Unlimited() }

// Reserve withdraws n tokens for a band-b call and returns the delay the
// caller must sleep before proceeding. Within its floor a band pays no
// delay regardless of the shared bucket's debt; past the floor it takes
// the cheaper of waiting out its own floor or borrowing shared headroom.
func (pb *PriorityBuckets) Reserve(band int, n float64) time.Duration {
	if pb.Unlimited() || n <= 0 {
		return 0
	}
	return pb.reserveAt(pb.shared.clk.Now(), band, n)
}

// reserveAt is Reserve against a clock reading the caller already holds (the
// router's arrival stamp), so the hierarchy costs no clock reads of its own.
func (pb *PriorityBuckets) reserveAt(now time.Time, band int, n float64) time.Duration {
	if pb.Unlimited() || n <= 0 {
		return 0
	}
	if band < 0 {
		band = 0
	} else if band >= NumPriorityBands {
		band = NumPriorityBands - 1
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	sub := pb.sub[band]
	if sub == nil {
		d := pb.shared.reserveDelay(now, n)
		pb.shared.charge(now, n)
		return d
	}
	subD := sub.reserveDelay(now, n)
	if subD == 0 {
		// Floors are carved out of the aggregate, so the shared bucket is
		// charged too — but never waited on.
		sub.charge(now, n)
		pb.shared.charge(now, n)
		return 0
	}
	if sharedD := pb.shared.reserveDelay(now, n); sharedD < subD {
		pb.shared.charge(now, n)
		return sharedD
	}
	sub.charge(now, n)
	pb.shared.charge(now, n)
	return subD
}

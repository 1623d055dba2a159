package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Measurement protocol constants. They are not flags: every run of every
// commit measures the same way.
const (
	// The calibration loop is a fixed piece of work run beside every block:
	// calHandoffs goroutine hand-offs over unbuffered channels, one FNV-1a
	// pass over calBytes and one copy of them. calNominalUS is what it takes
	// on the machine the block sizes were tuned on when that machine is
	// quiet. A time multiplied by calNominalUS/cal reads as "microseconds on
	// a machine where the loop takes calNominalUS", which cancels most of
	// the minutes-long 25-30 % speed drifts of a shared machine.
	//
	// The hand-offs carry most of the weight because they drift the way the
	// stack does: runtime-heavy code full of atomics and dependent loads
	// slows by 25-30 % when the other hardware thread of the core is busy,
	// while a hash loop (one multiply chain) slows by 8 %.
	calHandoffs  = 5000
	calBytes     = 256 << 10
	calNominalUS = 2300.0

	// An AvA block is split into subBlocks parts with a calibration loop
	// before, between and after them, so a block is calibrated by five
	// samples taken while it ran, not one taken before. The block's scale is
	// their median: a sample that coincides with a concurrent GC mark phase
	// or a guardian checkpoint reads two to three times too long.
	subBlocks = 4

	// A run is coldStarts cold starts, each followed by the workload's blocks
	// on the deployment it built. setup_s is the median over the starts, and
	// the blocks sample nine deployments (heap layouts, map seeds, thread
	// placements), not one.
	coldStarts = 9
)

// calibrator runs the fixed calibration loop. It owns one goroutine, the
// far end of the hand-offs, until close.
type calibrator struct {
	src, dst   []byte
	ping, pong chan int
	sink       uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{
		src: make([]byte, calBytes), dst: make([]byte, calBytes),
		ping: make(chan int), pong: make(chan int),
	}
	for i := range c.src {
		c.src[i] = byte(i * 31)
	}
	go func() {
		for v := range c.ping {
			c.pong <- v + 1
		}
		close(c.pong)
	}()
	return c
}

// close stops the calibrator's goroutine and waits for it.
func (c *calibrator) close() {
	close(c.ping)
	<-c.pong
}

// run times one calibration loop, in microseconds.
func (c *calibrator) run() float64 {
	start := time.Now()
	v := 0
	for i := 0; i < calHandoffs; i++ {
		c.ping <- v
		v = <-c.pong
	}
	h := uint32(2166136261)
	for _, b := range c.src {
		h = (h ^ uint32(b)) * 16777619
	}
	copy(c.dst, c.src)
	c.sink += h + uint32(c.dst[len(c.dst)-1]) + uint32(v)
	return us(time.Since(start))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; it does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// runner is one closed-loop client bound to one path (through the stack, or
// native on the silo). op performs operation number i and verifies its
// output.
type runner interface {
	op(i int) error
}

// checker is a runner whose ops leave state worth verifying after a block,
// outside the timed region.
type checker interface {
	check() error
}

// tally counts operations across every phase of a run. A refused, failed or
// mismatching op is a failure.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) add(attempted, failed int, err error) {
	t.mu.Lock()
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// opTimeout is the watchdog on every piece of work that waits for replies
// from the stack. No such piece lasts longer than about two seconds on the
// build machine (a block, a warm-up pass, the kill phase with its five
// recoveries), and no call carries a deadline of its own, so one that is
// still running after this long has lost a reply and would otherwise wait
// for it forever. A variable only so that the watchdog's own test need not
// wait this long.
var opTimeout = 30 * time.Second

// errStalled reports that the watchdog gave up. The goroutine it gave up on
// stays blocked in the stack, so the deployment must not be used again.
var errStalled = errors.New("no reply within the watchdog timeout; the run is abandoned")

// watched runs f on a goroutine of its own and waits for it, for at most
// opTimeout.
func watched(f func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	watchdog := time.NewTimer(opTimeout)
	defer watchdog.Stop()
	select {
	case <-done:
		return nil
	case <-watchdog.C:
		return errStalled
	}
}

// runOps drives every runner through ops [base, base+n) concurrently — one
// goroutine per client, each a closed loop — and returns the wall time. If
// perOp is non-nil, perOp[c][k] receives client c's k-th op duration. If the
// watchdog gives up, every op of a client that had not finished counts as
// failed.
func runOps(rs []runner, base, n int, tl *tally, perOp [][]time.Duration) (time.Duration, error) {
	// reported[c] is set by whoever accounts for client c: the client when
	// its loop ends, or this function when the watchdog gives up on it.
	reported := make([]atomic.Bool, len(rs))
	one := func(c int, r runner) {
		failed := 0
		var first error
		for k := 0; k < n; k++ {
			var t0 time.Time
			if perOp != nil {
				t0 = time.Now()
			}
			if err := r.op(base + k); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
			if perOp != nil {
				perOp[c][k] = time.Since(t0)
			}
		}
		if reported[c].CompareAndSwap(false, true) {
			tl.add(n, failed, first)
		}
	}
	var wall time.Duration
	err := watched(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 1; c < len(rs); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				one(c, rs[c])
			}(c)
		}
		one(0, rs[0])
		wg.Wait()
		wall = time.Since(start)
	})
	if err != nil {
		for c := range rs {
			if reported[c].CompareAndSwap(false, true) {
				tl.add(n, n, err)
			}
		}
		return 0, err
	}
	return wall, nil
}

// checkAll runs the untimed state check of every runner that has one; each
// counts as one op.
func checkAll(rs []runner, tl *tally) error {
	for _, r := range rs {
		c, ok := r.(checker)
		if !ok {
			continue
		}
		var err error
		if stalled := watched(func() { err = c.check() }); stalled != nil {
			tl.add(1, 1, stalled)
			return stalled
		}
		if err != nil {
			tl.add(1, 1, err)
		} else {
			tl.add(1, 0, nil)
		}
	}
	return nil
}

// block is what one measured block yields.
type block struct {
	calUS    float64 // calibration loop, median of the samples around the AvA parts
	natCalUS float64 // calibration loop, mean of the two samples around the native block
	nativeUS float64 // native wall time per op per client
	avaUS    float64 // AvA wall time per op per client
	cpuUS    float64 // process CPU per op, all clients
	// Modelled device latency per op inside nativeUS, and inside avaUS and
	// cpuUS (see modelled).
	nativeFixedUS float64
	avaFixedUS    float64
	mallocs       uint64
	bytes         uint64
	gcs           uint32
	ops           int // AvA ops, all clients
}

// measureBlock runs one paired block: the native block, an untimed GC so
// every AvA block starts from the same heap state, then the AvA block in
// subBlocks parts — with calibration loops around each piece. base is the
// first op index; the native block runs nativeMult times as many ops so that
// it lasts long enough to time. If perOp is non-nil, perOp[c][k] receives
// client c's k-th AvA op duration.
func measureBlock(cal *calibrator, d *deployment, base, ops, nativeMult int, tl *tally, perOp [][]time.Duration) (block, error) {
	var b block
	before := cal.run()
	nativeOps := ops * nativeMult
	fixed0 := modelled(d.nativeDevices)
	wall, err := runOps(d.native, base, nativeOps, tl, nil)
	if err != nil {
		return b, err
	}
	b.natCalUS = (before + cal.run()) / 2
	b.nativeUS = us(wall) / float64(nativeOps)
	b.nativeFixedUS = us(modelled(d.nativeDevices)-fixed0) / float64(nativeOps*len(d.native))

	parts := min(subBlocks, ops)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cals := []float64{cal.run()}
	var cpu time.Duration
	wall = 0
	fixed0 = modelled(d.devices)
	for p := 0; p < parts; p++ {
		lo, hi := ops*p/parts, ops*(p+1)/parts
		var part [][]time.Duration
		for c := range perOp {
			part = append(part, perOp[c][lo:hi])
		}
		cpu0 := cpuTime()
		partWall, err := runOps(d.ava, base+lo, hi-lo, tl, part)
		if err != nil {
			return b, err
		}
		wall += partWall
		cpu += cpuTime() - cpu0
		cals = append(cals, cal.run())
	}
	runtime.ReadMemStats(&m1)

	b.calUS = median(cals)
	b.ops = ops * len(d.ava)
	b.avaUS = us(wall) / float64(ops)
	b.avaFixedUS = us(modelled(d.devices)-fixed0) / float64(b.ops)
	b.cpuUS = us(cpu) / float64(b.ops)
	b.mallocs = m1.Mallocs - m0.Mallocs
	b.bytes = m1.TotalAlloc - m0.TotalAlloc
	b.gcs = m1.NumGC - m0.NumGC

	if err := checkAll(d.native, tl); err != nil {
		return b, err
	}
	return b, checkAll(d.ava, tl)
}

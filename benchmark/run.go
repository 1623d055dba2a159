package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"
)

// result is what one workload run reports.
type result struct {
	workload string
	traced   bool
	tally
	metrics map[string]float64
	// derived holds printed-only columns (throughput), in print order.
	derived []string
	blocks  []block
	kill    killStats
}

// sized returns the workload's counts for this run: the table's, unless the
// smoke test shrinks them.
func (w *workload) sized(cfg runConfig) (blocks, ops, warm, kill int) {
	blocks, ops, warm, kill = w.blocks, w.ops, w.warmupOps, w.killOps
	if cfg.blocks > 0 {
		blocks = cfg.blocks
	}
	if cfg.tiny {
		ops, warm, kill = max(1, ops/50), max(1, warm/100), kill/20
	}
	return
}

// startCold performs one cold start: compile, wire, attach, create objects,
// then the fixed warm-up pass. setupS is its calibrated time in seconds,
// warmS the raw time of the warm-up pass alone.
func startCold(w *workload, cfg runConfig, warmOps int, cal *calibrator, tl *tally) (d *deployment, setupS, warmS float64, err error) {
	before := cal.run()
	t0 := time.Now()
	if stalled := watched(func() { d, err = w.coldStart(cfg) }); stalled != nil {
		tl.add(1, 1, stalled)
		return nil, 0, 0, stalled
	}
	if err != nil {
		return nil, 0, 0, err
	}
	built := time.Since(t0)
	// The native twin warms up outside the timed region: it is the
	// yardstick, not the system.
	if _, err := runOps(d.native, 0, warmOps, tl, nil); err != nil {
		return nil, 0, 0, err
	}
	between := cal.run()
	warmed, err := runOps(d.ava, 0, warmOps, tl, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	// Every device of a fresh deployment starts at zero, so what its devices
	// have charged is what object creation and the warm-up waited out.
	fixedUS := us(modelled(d.devices)) / float64(len(d.ava))
	scale := calNominalUS / median([]float64{before, between, cal.run()})
	return d, calibrated(us(built+warmed), fixedUS, scale) / 1e6, warmed.Seconds(), nil
}

// closeWithin tears the deployment down, but does not wait for that longer
// than the watchdog allows: a deployment that lost a reply may not come down
// either.
func (d *deployment) closeWithin() {
	_ = watched(d.close) // nothing left to do about a teardown that hangs
}

// runTimed measures the end-to-end metrics of one workload with tracing off.
// If the watchdog gives up on the stack the result holds what was counted up
// to then, with the stalled ops as failures and the metrics left at zero.
func runTimed(w *workload, cfg runConfig) (*result, error) {
	res := &result{workload: w.name, metrics: map[string]float64{}}
	if err := res.timed(w, cfg); err != nil && !errors.Is(err, errStalled) {
		return nil, err
	}
	return res, nil
}

func (res *result) timed(w *workload, cfg runConfig) error {
	nBlocks, ops, warmOps, killOps := w.sized(cfg)
	cal := newCalibrator()
	defer cal.close()

	var setup []float64
	var startTime, blockTime, killTime time.Duration
	clients := 0
	for s := 0; s < cfg.starts; s++ {
		t0 := time.Now()
		d, setupS, _, err := startCold(w, cfg, warmOps, cal, &res.tally)
		if err != nil {
			return err
		}
		setup = append(setup, setupS)
		clients = len(d.ava)
		t1 := time.Now()
		base := warmOps
		for b := 0; b < nBlocks && err == nil; b++ {
			var blk block
			if blk, err = measureBlock(cal, d, base, ops, w.nativeMult, &res.tally, nil); err == nil {
				res.blocks = append(res.blocks, blk)
			}
			base += ops
		}
		t2 := time.Now()
		if err == nil && killOps > 0 && s == cfg.starts-1 {
			res.kill, err = runKillPhase(d, base, killOps, &res.tally)
		}
		d.closeWithin()
		if err != nil {
			return err
		}
		startTime, blockTime, killTime = startTime+t1.Sub(t0), blockTime+t2.Sub(t1), killTime+time.Since(t2)
	}
	res.derived = append(res.derived, fmt.Sprintf("phases      %d cold starts %.1f s, %d blocks %.1f s, kill phase and teardown %.1f s",
		cfg.starts, startTime.Seconds(), len(res.blocks), blockTime.Seconds(), killTime.Seconds()))

	res.metrics["setup_s"] = median(setup)
	endToEndFromBlocks(res.metrics, res.blocks)
	opUS := res.metrics["op_us"]
	res.derived = append(res.derived, fmt.Sprintf("throughput  %.0f ops/s (%d clients, calibrated)", float64(clients)*1e6/opUS, clients))
	if w.name == "bulk" {
		res.derived = append(res.derived, fmt.Sprintf("bandwidth   %.1f MB/s (write + read)", 2*bulkBytes/opUS))
	}
	return nil
}

// calibrated converts a measured time to what it would be on a machine where
// the calibration loop takes calNominalUS. Only the part of it that the
// machine's speed governs is scaled: fixed, the modelled device latency
// inside it, is waited out on the wall clock and takes as long on a slow day
// as on a fast one.
func calibrated(raw, fixed, scale float64) float64 {
	return fixed + (raw-fixed)*scale
}

// endToEndFromBlocks applies the estimators: every timing is the median over
// blocks of a per-block quotient, every count a total over all blocks.
func endToEndFromBlocks(m map[string]float64, blocks []block) {
	var rel, op, cpu []float64
	var mallocs, bytes uint64
	ops := 0
	for _, b := range blocks {
		scale := calNominalUS / b.calUS
		ava := calibrated(b.avaUS, b.avaFixedUS, scale)
		rel = append(rel, ava/calibrated(b.nativeUS, b.nativeFixedUS, scale))
		op = append(op, ava)
		cpu = append(cpu, calibrated(b.cpuUS, b.avaFixedUS, scale))
		mallocs += b.mallocs
		bytes += b.bytes
		ops += b.ops
	}
	m["relative_time"] = median(rel)
	m["op_us"] = median(op)
	m["cpu_us_per_op"] = median(cpu)
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["alloc_bytes_per_op"] = float64(bytes) / float64(ops)
}

// killStats is what the kill phase observed.
type killStats struct {
	kills       int
	recoveries  uint64
	pausesUS    []float64
	resubmitted uint64
}

const kills = 5

// runKillPhase has every client issue n more ops while VM 1's own loop
// severs its API server before five fixed op indices and lets the guardian
// finish the recovery before it issues that op; VM 2 keeps issuing ops
// throughout. Killing from the client's loop, between two of its ops, makes
// the schedule a function of the op index alone.
//
// VM 1 waits because of a defect in the stack (README, "Known defect"): a
// frame that the guardian's uplink took in before a recovery and admits after
// it leaves a sync call in flight that nobody will ever answer, and the next
// recovery's resubmission waits for it forever.
func runKillPhase(d *deployment, base, n int, tl *tally) (killStats, error) {
	var ks killStats
	vm := d.vms[0]
	g := d.stack.Guardian(vm)
	lib := d.wiring.ava[0].lib
	resub0 := lib.Stats().ResubmittedCalls
	rec0 := g.Stats().Recoveries

	killer := &killRunner{runner: d.ava[0], at: map[int]bool{}}
	for k := 0; k < kills; k++ {
		killer.at[base+(2*k+1)*n/(2*kills)] = true
	}
	killer.kill = func() error {
		if err := d.stack.KillServer(vm); err != nil {
			return err
		}
		ks.kills++
		for t0 := time.Now(); g.Stats().Recoveries < rec0+uint64(ks.kills); {
			if time.Since(t0) > opTimeout {
				return fmt.Errorf("kill %d: no recovery within %v", ks.kills, opTimeout)
			}
			time.Sleep(100 * time.Microsecond)
		}
		ks.pausesUS = append(ks.pausesUS, us(g.Stats().LastRecoveryPause))
		return nil
	}
	if _, err := runOps(append([]runner{killer}, d.ava[1:]...), base, n, tl, nil); err != nil {
		return killStats{}, err // VM 1's loop may still be writing ks
	}

	if ks.recoveries = g.Stats().Recoveries - rec0; ks.recoveries != uint64(ks.kills) {
		tl.add(1, 1, fmt.Errorf("kill phase: %d recoveries after %d kills", ks.recoveries, ks.kills))
	}
	ks.resubmitted = lib.Stats().ResubmittedCalls - resub0
	return ks, nil
}

// killRunner wraps a runner: before each op whose index is in at it kills
// the server and waits for the recovery.
type killRunner struct {
	runner
	at   map[int]bool
	kill func() error
}

func (k *killRunner) op(i int) error {
	if k.at[i] {
		if err := k.kill(); err != nil {
			return err
		}
	}
	return k.runner.op(i)
}

// print writes the human-readable table and then, as the last line, the
// result object the benchmark contract asks for.
func (r *result) print(out io.Writer) {
	table := endToEnd
	if r.traced {
		table = perLayer
	}
	fmt.Fprintf(out, "\n== %s (%s) ==\n", r.workload, map[bool]string{false: "timed", true: "traced"}[r.traced])
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	for _, m := range table {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.Name, r.metrics[m.Name], m.Unit)
	}
	fmt.Fprintf(tw, "ops_attempted\t%d\tcount\n", r.attempted)
	fmt.Fprintf(tw, "ops_failed\t%d\tcount\n", r.failed)
	tw.Flush()
	for _, line := range r.derived {
		fmt.Fprintln(out, line)
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", r.firstErr)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range table {
		obj.Metrics[m.Name] = value{r.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		// A NaN or Inf slipped into a metric; that is a harness bug.
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func printEnvironment(out io.Writer) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Fprintf(out, "nproc=%d GOMAXPROCS=%d GOGC=%s %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

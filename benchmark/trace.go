package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ava"
	"ava/internal/guest"
)

// The traced run fills the per-layer table. End-to-end metrics are never
// taken from it: it timestamps every op, replays layers, and runs
// differential deployments, all of which the timed run leaves out.

// layerCounters is the sum of the public stats readers over a deployment.
type layerCounters struct {
	guest                 guest.Stats
	denied                uint64
	stall                 time.Duration
	exec, admitToDispatch time.Duration
	kernel, dma           time.Duration
}

func (d *deployment) counters() layerCounters {
	var c layerCounters
	addLib := func(l *guest.Lib) {
		if l == nil {
			return
		}
		s := l.Stats()
		c.guest.Batches += s.Batches
		c.guest.BytesCopied += s.BytesCopied
		c.guest.BytesBorrowed += s.BytesBorrowed
		c.guest.StagedCalls += s.StagedCalls
		c.guest.StageEncodeToAdmit += s.StageEncodeToAdmit
		c.guest.StageAdmitToDispatch += s.StageAdmitToDispatch
		c.guest.StageExec += s.StageExec
		c.guest.StageReply += s.StageReply
	}
	for _, cl := range d.wiring.ava {
		addLib(cl.lib)
		addLib(cl.nlb)
	}
	for _, id := range d.vms {
		if s, err := d.router.Stats(id); err == nil {
			c.denied += s.Denied
			c.stall += s.Stall
		}
	}
	for _, ctx := range d.contexts() {
		s := ctx.Stats()
		c.exec += s.ExecTime
		c.admitToDispatch += s.AdmitToDispatch
	}
	for _, dev := range d.devices {
		s := dev.Stats()
		c.kernel += s.KernelTime
		c.dma += s.TransferTime
	}
	return c
}

// tracedBlocks is how many untraced/traced block pairs the traced run
// measures.
const tracedBlocks = 8

// runTraced fills the per-layer table of one workload. If the watchdog gives
// up on the stack the result holds what was counted and measured up to then,
// with the stalled ops as failures.
func runTraced(w *workload, cfg runConfig, spansFile string) (*result, error) {
	res := &result{workload: w.name, traced: true, metrics: map[string]float64{}}
	for _, pm := range perLayer {
		res.metrics[pm.Name] = 0
	}
	if err := res.trace(w, cfg, spansFile); err != nil && !errors.Is(err, errStalled) {
		return nil, err
	}
	return res, nil
}

func (res *result) trace(w *workload, cfg runConfig, spansFile string) error {
	_, ops, warmOps, killOps := w.sized(cfg)
	nBlocks := tracedBlocks
	if cfg.blocks > 0 {
		nBlocks = cfg.blocks
	}
	capN, attachN, compileN, variantRounds := w.captureOps, 101, 21, 8
	if cfg.tiny {
		capN, attachN, compileN, variantRounds = max(1, capN/32), 5, 3, 2
	}
	m := res.metrics
	cal := newCalibrator()
	defer cal.close()
	tr := newTracer()

	// cava: the specification front end alone.
	var compile []float64
	for i := 0; i < compileN; i++ {
		t0 := time.Now()
		if _, err := w.compileSpecs(); err != nil {
			return err
		}
		compile = append(compile, us(time.Since(t0)))
	}
	m["cava.compile_spec_us"] = median(compile)

	// Attach: wire the deployment and make the first synchronous call.
	descs, err := w.compileSpecs()
	if err != nil {
		return err
	}
	var attach []float64
	for i := 0; i < attachN; i++ {
		t0 := time.Now()
		wr, err := w.wire(descs)
		if err != nil {
			return err
		}
		for _, c := range wr.ava {
			if _, err := c.cl.PlatformIDs(); err != nil {
				res.add(1, 1, err)
			}
		}
		attach = append(attach, us(time.Since(t0)))
		wr.close()
	}
	m["stack.attach_us"] = median(attach)

	// The workload itself: one cold start, then pairs of an untraced block
	// (paired with native, as in the timed run) and a block with every op
	// timestamped, a calibration loop on either side of it.
	d, _, warmS, err := startCold(w, cfg, warmOps, cal, &res.tally)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			d.closeWithin()
		}
	}()
	m["harness.warmup_s"] = warmS

	perOp := make([][]time.Duration, len(d.ava))
	for c := range perOp {
		perOp[c] = make([]time.Duration, ops)
	}
	var (
		all, overhead, tracedCals []float64
		tracedOps                 int
	)
	before := d.counters()
	base := warmOps
	for b := 0; b < nBlocks; b++ {
		blk, err := measureBlock(cal, d, base, ops, w.nativeMult, &res.tally, nil)
		if err != nil {
			return err
		}
		res.blocks = append(res.blocks, blk)
		base += ops

		runtime.GC()
		calBefore := cal.run()
		start := time.Now()
		wall, err := runOps(d.ava, base, ops, &res.tally, perOp)
		if err != nil {
			return err
		}
		tracedCals = append(tracedCals, (calBefore+cal.run())/2)
		base += ops
		tracedOps += ops * len(d.ava)
		overhead = append(overhead, us(wall)/float64(ops)/blk.avaUS)
		for c := range perOp {
			at := start
			for k, dur := range perOp[c] {
				all = append(all, us(dur))
				// Root spans of the real run: the first traced block's
				// first ops of client 0, as many as the replay covers.
				if b == 0 && c == 0 && k < capN {
					tr.add(0, k, "stack", "op", at, at.Add(dur))
				}
				at = at.Add(dur)
			}
		}
	}
	after := d.counters()

	var cals, native, nativeCal, raw, fixed []float64
	nOps := tracedOps
	var gcs uint32
	for _, b := range res.blocks {
		cals = append(cals, b.calUS)
		native = append(native, b.nativeUS)
		nativeCal = append(nativeCal, calibrated(b.nativeUS, b.nativeFixedUS, calNominalUS/b.natCalUS))
		raw = append(raw, b.avaUS)
		fixed = append(fixed, b.avaFixedUS)
		nOps += b.ops
		gcs += b.gcs
	}
	perOpOf := func(d time.Duration) float64 { return us(d) / float64(nOps) }
	m["harness.cal_us"] = median(cals)
	m["silo.us_per_op"] = median(native)
	m["harness.native_us_per_op"] = median(nativeCal)
	m["stack.raw_op_us"] = median(raw)
	m["stack.op_p50_us"] = quantile(all, 0.50)
	m["stack.op_p90_us"] = quantile(all, 0.90)
	m["stack.op_p99_us"] = quantile(all, 0.99)
	m["stack.gc_cycles"] = float64(gcs)
	m["harness.trace_overhead_pct"] = 100 * (median(overhead) - 1)

	g0, g1 := before.guest, after.guest
	m["guest.frames_per_op"] = float64(g1.Batches-g0.Batches) / float64(nOps)
	m["guest.bytes_copied_per_op"] = float64(g1.BytesCopied-g0.BytesCopied) / float64(nOps)
	m["guest.bytes_borrowed_per_op"] = float64(g1.BytesBorrowed-g0.BytesBorrowed) / float64(nOps)
	if staged := float64(g1.StagedCalls - g0.StagedCalls); staged > 0 {
		m["guest.stage_enc_admit_us"] = us(g1.StageEncodeToAdmit-g0.StageEncodeToAdmit) / staged
		m["guest.stage_admit_disp_us"] = us(g1.StageAdmitToDispatch-g0.StageAdmitToDispatch) / staged
		m["guest.stage_exec_us"] = us(g1.StageExec-g0.StageExec) / staged
		m["guest.stage_reply_us"] = us(g1.StageReply-g0.StageReply) / staged
	}
	m["hv.stall_us_per_op"] = perOpOf(after.stall - before.stall)
	m["server.exec_us_per_op"] = perOpOf(after.exec - before.exec)
	m["server.queue_us_per_op"] = perOpOf(after.admitToDispatch - before.admitToDispatch)
	m["silo.kernel_us_per_op"] = perOpOf(after.kernel - before.kernel)
	m["silo.dma_us_per_op"] = perOpOf(after.dma - before.dma)

	if killOps > 0 {
		if err := serveVariants(w, cfg, ops/4, variantRounds, &res.tally, m); err != nil {
			return err
		}
		ks, err := runKillPhase(d, base, killOps, &res.tally)
		if err != nil {
			return err
		}
		res.kill = ks
		m["failover.recovery_pause_us"] = median(ks.pausesUS)
		m["failover.resubmitted_per_kill"] = float64(ks.resubmitted) / float64(max(1, ks.kills))
		for _, id := range d.vms {
			m["failover.checkpoints"] += float64(d.stack.Guardian(id).Stats().Checkpoints)
		}
		m["failover.ckpt_bytes"] = float64(d.stack.Guardian(d.vms[0]).Stats().LastCkptBytes)
	}
	m["hv.denied"] = float64(d.counters().denied)
	if m["hv.denied"] > 0 {
		res.add(1, 1, fmt.Errorf("router denied %v calls", m["hv.denied"]))
	}
	d.closeWithin()
	closed = true
	m["stack.peak_rss_mb"] = peakRSSMB()

	// Layer replay.
	cp, err := captureOps(w, cfg, capN)
	if err != nil {
		return err
	}
	rp := &replayer{w: w, cfg: cfg, cp: cp, tr: tr, cal: cal, m: m}
	if err := rp.marshal(); err != nil {
		return err
	}
	// The layer sum is the four replayed layers plus the time the run spent
	// inside the server's handlers, which is the silo at work. marshal is not
	// in it: guest, hv and server call it themselves, so its time is already
	// inside theirs. Every term is calibrated by the loops that ran beside it.
	layers := calibrated(m["server.exec_us_per_op"], median(fixed), calNominalUS/m["harness.cal_us"])
	for _, pass := range []struct {
		run    func() error
		metric string
	}{
		{rp.guest, "guest.call_us_per_op"},
		{rp.transport, "transport.rtt_us_per_op"},
		{rp.hv, "hv.admit_us_per_op"},
		{rp.server, "server.dispatch_us_per_op"},
	} {
		v, err := rp.repeated(pass.run, pass.metric)
		if err != nil {
			return err
		}
		layers += v
	}
	// The sum is set against the same op time op_us reports: the mean over a
	// block, GC cycles and scheduling tails included. Each replayed layer is a
	// median over ops, so what the sum leaves over is hand-offs between
	// goroutines plus those tails; the median op is printed beside it.
	e2e := map[string]float64{}
	endToEndFromBlocks(e2e, res.blocks)
	op := e2e["op_us"]
	m["stack.layer_coverage"] = layers / op
	m["stack.unattributed_us_per_op"] = op - layers
	p50 := m["stack.op_p50_us"] * calNominalUS / median(tracedCals)
	res.derived = append(res.derived, fmt.Sprintf("coverage    layers %.2f us of %.2f us mean op time (op_us) = %.2f; of %.2f us median op time = %.2f (all calibrated, %d ops replayed)",
		layers, op, m["stack.layer_coverage"], p50, layers/p50, capN))
	self := selfTimes(tr.spans)
	for _, layer := range []string{"guest", "marshal", "transport", "hv", "server", "harness"} {
		res.derived = append(res.derived, fmt.Sprintf("self time   %-9s %10.2f us/op", layer, us(self[layer])/float64(capN)))
	}
	// On calls the layers are serial, so a sum that leaves the op time far
	// behind, or overtakes it, means a layer is being driven wrongly.
	if cov := m["stack.layer_coverage"]; w.name == "calls" && !cfg.tiny && (cov < 0.5 || cov > 1.1) {
		res.add(1, 1, fmt.Errorf("layer coverage %.2f outside [0.5, 1.1]", cov))
	}

	if err := writeSpans(spansFile, w.name, tr.spans); err != nil {
		return err
	}
	res.derived = append(res.derived, fmt.Sprintf("spans       %d written to %s", len(tr.spans), spansFile))
	return nil
}

// serveVariants measures what the guardian and a mirror cost per op: the
// same blocks on three deployments that differ only in that, interleaved.
func serveVariants(w *workload, cfg runConfig, ops, rounds int, tl *tally, m map[string]float64) error {
	variants := []serveVariant{serveDefault, serveNoGuardian, serveMirror}
	deps := make([]*deployment, len(variants))
	for i, v := range variants {
		wv := *w
		wv.wire = func(descs []*ava.Descriptor) (*wiring, error) { return wireServeVariant(descs, v) }
		d, err := wv.coldStart(cfg)
		if err != nil {
			return err
		}
		defer d.closeWithin()
		if _, err := runOps(d.ava, 0, ops, tl, nil); err != nil {
			return err
		}
		deps[i] = d
	}
	var guardian, mirror []float64
	for r := 0; r < rounds; r++ {
		var opUS [3]float64
		for i, d := range deps {
			runtime.GC()
			wall, err := runOps(d.ava, (r+1)*ops, ops, tl, nil)
			if err != nil {
				return err
			}
			opUS[i] = us(wall) / float64(ops)
		}
		guardian = append(guardian, opUS[0]-opUS[1])
		mirror = append(mirror, opUS[2]-opUS[0])
	}
	m["failover.guardian_tax_us_per_op"] = median(guardian)
	m["failover.mirror_tax_us_per_op"] = median(mirror)
	return nil
}

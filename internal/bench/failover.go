package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/rodinia"
)

// Failover is E12: a SIGKILL-equivalent API-server death in the middle of
// the Rodinia gaussian workload, on every transport. The guardian must
// detect the crash, respawn the server, replay the record log up to the
// checkpoint watermark and let the guest resubmit the rest — completing
// the workload with a checksum byte-identical to an undisturbed run and
// zero calls dropped. The table reports the cost: end-to-end slowdown of
// the killed run and the recovery pause itself, and what a guarded call
// allocates in the undisturbed run — the whole process's allocations
// (guest, guardian, server, silo, workload) over the calls the guest made —
// and how many entries the guardian's shadow log holds when the kill lands.
func Failover(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E12/Failover",
		Title:  "Fault tolerance: server SIGKILL mid-gaussian, replay recovery",
		Header: []string{"transport", "undisturbed", "allocs/call", "B/call", "log entries", "with kill", "recovery pause", "identical", "resubmitted"},
	}
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		return nil, fmt.Errorf("bench: gaussian workload missing")
	}
	scale := opts.scale()

	type result struct {
		dur    time.Duration
		sum    float64
		gs     failover.Stats
		resub  uint64
		retry  uint64
		allocs float64 // per guest call
		bytes  float64 // per guest call
		logN   uint64  // shadow-log entries the instant before the kill
	}
	run := func(kind string, killAfter time.Duration) (result, error) {
		var r result
		silo := gpuSilo(0)
		fo := e12Failover(12)
		stack, stop, err := transportStack(kind, silo, ava.WithFailover(fo))
		if err != nil {
			return r, err
		}
		defer stop()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "e12-vm"})
		if err != nil {
			return r, err
		}
		c := cl.NewRemote(lib)
		killed := make(chan uint64, 1)
		if killAfter > 0 {
			go func() {
				time.Sleep(killAfter)
				killed <- stack.Guardian(1).Stats().LogEntries
				stack.KillServer(1)
			}()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r.sum, err = w.Run(c, scale)
		r.dur = time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return r, err
		}
		r.gs = stack.Guardian(1).Stats()
		if killAfter > 0 {
			r.logN = <-killed
		}
		ls := lib.Stats()
		r.resub, r.retry = ls.ResubmittedCalls, ls.RetryableFailed
		if ls.Calls > 0 {
			r.allocs = float64(after.Mallocs-before.Mallocs) / float64(ls.Calls)
			r.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(ls.Calls)
		}
		return r, nil
	}

	for _, kind := range benchTransports {
		base, err := run(kind, 0)
		if err != nil {
			return nil, fmt.Errorf("%s undisturbed: %w", kind, err)
		}
		killAt := base.dur / 3
		if killAt < time.Millisecond {
			killAt = time.Millisecond
		}
		killed, err := run(kind, killAt)
		if err != nil {
			return nil, fmt.Errorf("%s killed run: %w", kind, err)
		}
		identical := math.Float64bits(killed.sum) == math.Float64bits(base.sum) &&
			killed.retry == 0 && killed.gs.Recoveries >= 1
		t.Add(kind, ms(base.dur), fmt.Sprintf("%.1f", base.allocs), fmt.Sprintf("%.0f", base.bytes),
			fmt.Sprintf("%d", killed.logN), ms(killed.dur), ms(killed.gs.LastRecoveryPause),
			fmt.Sprintf("%v", identical), fmt.Sprintf("%d", killed.resub))
	}
	t.Note("identical = bitwise-equal checksum vs the undisturbed run, >=1 recovery, zero calls dropped (E12 acceptance)")
	t.Note("allocs/call, B/call = the process's runtime.MemStats Mallocs and TotalAlloc deltas over the undisturbed run, divided by the guest library's Stats().Calls")
	t.Note("log entries = the guardian's shadow log (Stats().LogEntries) the instant before the kill: what the recovery replays or rebinds, once each checkpoint has dropped the clSetKernelArg values a newer call replaced")
	t.Note("recovery pause covers respawn dial + record-log replay + checkpoint state restore, each a round trip on the new link (the call itself, FuncRebind, FuncRestore) on every row; the tcp(disagg) row redials a live host.Server, as E13 does")
	return t, nil
}

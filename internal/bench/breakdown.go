package bench

import (
	"fmt"
	"runtime"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/guest"
)

// us renders a per-call stage mean, which lives at microsecond scale.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
}

// breakdownApp is the vectoradd application's device objects, built once
// before the timed region: E9 measures what a launch costs the stack, and
// creating a context, a queue, three buffers, a program and a kernel per
// repetition measured the device allocator instead (nearly all of the old
// B/call was devsim device memory).
type breakdownApp struct {
	c            cl.Client
	ctx, q       cl.Ref
	ba, bb, bo   cl.Ref
	prog, kernel cl.Ref
	n            int
}

func newBreakdownApp(c cl.Client, n int) (*breakdownApp, error) {
	app := &breakdownApp{c: c, n: n}
	ps, err := c.PlatformIDs()
	if err != nil {
		return nil, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	if app.ctx, err = c.CreateContext(ds); err != nil {
		return nil, err
	}
	if app.q, err = c.CreateQueue(app.ctx, ds[0], 0); err != nil {
		return nil, err
	}
	for _, m := range []*cl.Ref{&app.ba, &app.bb, &app.bo} {
		if *m, err = c.CreateBuffer(app.ctx, 1, uint64(4*n)); err != nil {
			return nil, err
		}
	}
	if app.prog, err = c.CreateProgram(app.ctx, "vector_add"); err != nil {
		return nil, err
	}
	if err := c.BuildProgram(app.prog, ""); err != nil {
		return nil, err
	}
	if app.kernel, err = c.CreateKernel(app.prog, "vector_add"); err != nil {
		return nil, err
	}
	return app, nil
}

// run is one timed repetition: the inputs written, the kernel's arguments
// set, the launch, and the result read back. Host buffers are prepared by
// the caller; that data preparation is not remoting-stack work.
func (app *breakdownApp) run(abytes, bbytes, out []byte) error {
	c, q, k := app.c, app.q, app.kernel
	if err := c.EnqueueWrite(q, app.ba, false, 0, abytes); err != nil {
		return err
	}
	if err := c.EnqueueWrite(q, app.bb, false, 0, bbytes); err != nil {
		return err
	}
	c.SetKernelArgBuffer(k, 0, app.ba)
	c.SetKernelArgBuffer(k, 1, app.bb)
	c.SetKernelArgBuffer(k, 2, app.bo)
	c.SetKernelArgScalar(k, 3, cl.ArgU32(uint32(app.n)))
	if err := c.EnqueueNDRange(q, k, []uint64{uint64(app.n)}, []uint64{256}); err != nil {
		return err
	}
	if err := c.EnqueueRead(q, app.bo, true, 0, out); err != nil {
		return err
	}
	return c.DeferredError()
}

// Breakdown decomposes remoted call latency using the stamped Call/Reply
// headers. Every synchronous call carries four timestamps — guest encode,
// router admit, server dispatch, server done — so the guest can attribute
// its blocked time to the guest→router leg (marshal + transport + policing),
// router queueing/scheduling, silo execution, and the reply path. The
// table runs the vectoradd launch — device objects built once, then per
// repetition the writes, kernel arguments, launch and read-back — with
// forced-sync calls and checks that
// the four stages account for (nearly all of) the measured end-to-end wall
// time: coverage should sit within ~10% of 100%.
func Breakdown(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "per-call stage breakdown (vectoradd, sync calls)",
		Header: []string{"transport", "calls", "allocs/call", "B/call", "enc->admit",
			"admit->disp", "exec", "reply", "stage sum", "e2e", "coverage"},
	}

	n := (1 << 16) * opts.scale()
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	abytes, bbytes := f32bytes(a), f32bytes(b)
	out := make([]byte, 4*n)

	for _, tr := range []struct {
		name string
		kind ava.TransportKind
	}{
		{"inproc", ava.TransportInProc},
		{"shm-ring", ava.TransportRing},
	} {
		stack := clStack(gpuSilo(0), false, ava.WithTransport(tr.kind))
		c, err := clRemote(stack, 1, guest.WithForceSync())
		if err != nil {
			stack.Close()
			return nil, err
		}
		app, err := newBreakdownApp(c, n)
		if err != nil {
			stack.Close()
			return nil, err
		}
		run := func() error { return app.run(abytes, bbytes, out) }

		// Warm up once so one-time costs (handle tables, ring setup)
		// do not pollute the stage accounting.
		if err := run(); err != nil {
			stack.Close()
			return nil, err
		}

		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		before := c.Lib().Stats()
		start := time.Now()
		for r := 0; r < opts.reps(); r++ {
			if err := run(); err != nil {
				stack.Close()
				return nil, err
			}
		}
		e2e := time.Since(start)
		after := c.Lib().Stats()
		runtime.ReadMemStats(&mem1)
		stack.Close()

		calls := after.StagedCalls - before.StagedCalls
		if calls == 0 {
			return nil, fmt.Errorf("breakdown: %s: no staged calls recorded", tr.name)
		}
		encAdmit := after.StageEncodeToAdmit - before.StageEncodeToAdmit
		admitDisp := after.StageAdmitToDispatch - before.StageAdmitToDispatch
		exec := after.StageExec - before.StageExec
		reply := after.StageReply - before.StageReply
		sum := encAdmit + admitDisp + exec + reply

		per := func(d time.Duration) string { return us(d / time.Duration(calls)) }
		issued := float64(after.Calls - before.Calls)
		t.Add(tr.name, fmt.Sprintf("%d", calls),
			fmt.Sprintf("%.1f", float64(mem1.Mallocs-mem0.Mallocs)/issued),
			fmt.Sprintf("%.0f", float64(mem1.TotalAlloc-mem0.TotalAlloc)/issued),
			per(encAdmit), per(admitDisp), per(exec), per(reply),
			ms(sum), ms(e2e), fmt.Sprintf("%.0f%%", 100*ratio(sum, e2e)))
	}
	t.Note("coverage = stamped stage sum / measured wall time; forced-sync calls, so the four stages should account for ~all of it")
	t.Note("exec dominates on DMA-heavy calls (the silo charges PCIe + launch costs); enc->admit and reply are the remoting tax")
	t.Note("enc->admit ends at the router's arrival reading for a call it did not hold, so the router's own policing falls in admit->disp")
	t.Note("allocs/call, B/call = the process's runtime.MemStats Mallocs and TotalAlloc deltas over the timed runs, divided by the guest library's Stats().Calls; they include the workload's own allocations")
	return t, nil
}

package bench

import (
	"fmt"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/fleet"
	"ava/internal/fullvirt"
	"ava/internal/guest"
	"ava/internal/host"
	"ava/internal/hv"
	"ava/internal/mvnc"
	"ava/internal/rodinia"
)

// Options tune experiment scale.
type Options struct {
	// Scale multiplies workload problem sizes (default 1).
	Scale int
	// Reps per measurement; the minimum is reported (default 3).
	Reps int
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) reps() int {
	if o.Reps < 1 {
		return 3
	}
	return o.Reps
}

// Figure5 reproduces the paper's Figure 5: end-to-end relative execution
// time of the Rodinia benchmarks plus Inception v3 on the NCS, normalized
// to native. The paper reports ≤1.16x with mean ≈1.08x for OpenCL and
// ≈1.01x for the NCS.
func Figure5(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E1/Figure5",
		Title:  "End-to-end relative execution time (AvA / native)",
		Header: []string{"benchmark", "native", "ava", "relative"},
	}
	var sum, n float64
	for _, w := range rodinia.All() {
		native, err := timeIt(opts.reps(), func() error {
			c := cl.NewNative(gpuSilo(0))
			_, err := w.Run(c, opts.scale())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", w.Name, err)
		}
		remote, err := timeIt(opts.reps(), func() error {
			stack := clStack(gpuSilo(0), false)
			defer stack.Close()
			c, err := clRemote(stack, 1)
			if err != nil {
				return err
			}
			_, err = w.Run(c, opts.scale())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s remote: %w", w.Name, err)
		}
		rel := ratio(remote, native)
		sum += rel
		n++
		t.Add(w.Name, ms(native), ms(remote), fmt.Sprintf("%.2fx", rel))
	}

	// Inception on the simulated NCS.
	inferences := 4 * opts.scale()
	native, err := timeIt(opts.reps(), func() error {
		_, err := mvnc.RunInception(mvnc.NewNative(mvnc.NewSilo(mvnc.Config{})), inferences)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("inception native: %w", err)
	}
	remote, err := timeIt(opts.reps(), func() error {
		stack, _ := mvncStack()
		defer stack.Close()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "ncs-vm"})
		if err != nil {
			return err
		}
		_, err = mvnc.RunInception(mvnc.NewRemote(lib), inferences)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("inception remote: %w", err)
	}
	rel := ratio(remote, native)
	t.Add("inception(ncs)", ms(native), ms(remote), fmt.Sprintf("%.2fx", rel))

	t.Note("Rodinia mean overhead: %.1f%% (paper: ~8%%, max 16%%); inception: %.1f%% (paper: ~1%%)",
		(sum/n-1)*100, (rel-1)*100)
	return t, nil
}

// AsyncAblation reproduces the §5 optimization experiment: asynchronous
// forwarding of annotated calls vs the unoptimized (fully synchronous)
// specification. The paper reports an 8.6% speedup from the optimization
// and ~5% residual overhead vs native on the affected workloads.
func AsyncAblation(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E2/AsyncAblation",
		Title:  "Asynchronous forwarding ablation (call-intensive workloads)",
		Header: []string{"benchmark", "native", "ava-sync-only", "ava-async", "speedup", "vs-native"},
	}
	// The call-intensive workloads are where async forwarding matters.
	names := []string{"gaussian", "pathfinder", "nw", "bfs"}
	for _, name := range names {
		w, ok := rodinia.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %s", name)
		}
		native, err := timeIt(opts.reps(), func() error {
			_, err := w.Run(cl.NewNative(gpuSilo(0)), opts.scale())
			return err
		})
		if err != nil {
			return nil, err
		}
		syncOnly, err := timeIt(opts.reps(), func() error {
			stack := clStack(gpuSilo(0), false)
			defer stack.Close()
			c, err := clRemote(stack, 1, guest.WithForceSync())
			if err != nil {
				return err
			}
			_, err = w.Run(c, opts.scale())
			return err
		})
		if err != nil {
			return nil, err
		}
		async, err := timeIt(opts.reps(), func() error {
			stack := clStack(gpuSilo(0), false)
			defer stack.Close()
			c, err := clRemote(stack, 1)
			if err != nil {
				return err
			}
			_, err = w.Run(c, opts.scale())
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(name, ms(native), ms(syncOnly), ms(async),
			fmt.Sprintf("%.1f%%", (ratio(syncOnly, async)-1)*100),
			fmt.Sprintf("%.1f%%", (ratio(async, native)-1)*100))
	}
	t.Note("speedup = sync-only/async - 1 (paper: 8.6%%); vs-native = async/native - 1 (paper: ~5%%)")
	return t, nil
}

// FullVirtBaseline reproduces the §2 motivation comparison: trap-based
// full virtualization vs AvA's API remoting vs native, on a vector-add
// microworkload. The paper cites orders-of-magnitude losses for trapping
// every MMIO/BAR access.
func FullVirtBaseline(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E3/FullVirt",
		Title:  "Full virtualization (trap-and-emulate) vs AvA vs native, vector add",
		Header: []string{"elements", "native", "ava", "fullvirt(modeled)", "ava-slowdown", "fullvirt-slowdown"},
	}
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		n := n
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i)
			b[i] = float32(2 * i)
		}

		native, err := timeIt(opts.reps(), func() error {
			return vectorAdd(cl.NewNative(gpuSilo(0)), a, b)
		})
		if err != nil {
			return nil, err
		}
		remote, err := timeIt(opts.reps(), func() error {
			stack := clStack(gpuSilo(0), false)
			defer stack.Close()
			c, err := clRemote(stack, 1)
			if err != nil {
				return err
			}
			return vectorAdd(c, a, b)
		})
		if err != nil {
			return nil, err
		}

		// Full virtualization: real execution plus the modeled per-trap
		// vm-exit cost (1.5µs); the guest pays 3 traps per element.
		dev := fullvirt.New(fullvirt.Config{})
		start := time.Now()
		if _, _, err := dev.GuestVectorAdd(a, b); err != nil {
			return nil, err
		}
		fv := time.Since(start) + dev.ModeledTrapTime()

		t.Add(fmt.Sprintf("%d", n), ms(native), ms(remote), ms(fv),
			fmt.Sprintf("%.2fx", ratio(remote, native)),
			fmt.Sprintf("%.0fx", ratio(fv, native)))
	}
	t.Note("fullvirt = measured emulation + traps x 1.5us vm-exit cost (paper: 'orders-of-magnitude performance losses')")
	return t, nil
}

// vectorAdd is the shared micro-workload.
func vectorAdd(c cl.Client, a, b []float32) error {
	n := len(a)
	ps, err := c.PlatformIDs()
	if err != nil {
		return err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return err
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		return err
	}
	defer c.ReleaseContext(ctx)
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		return err
	}
	defer c.ReleaseQueue(q)
	mk := func() (cl.Ref, error) { return c.CreateBuffer(ctx, 1, uint64(4*n)) }
	ba, err := mk()
	if err != nil {
		return err
	}
	bb, err := mk()
	if err != nil {
		return err
	}
	bo, err := mk()
	if err != nil {
		return err
	}
	if err := c.EnqueueWrite(q, ba, false, 0, f32bytes(a)); err != nil {
		return err
	}
	if err := c.EnqueueWrite(q, bb, false, 0, f32bytes(b)); err != nil {
		return err
	}
	prog, err := c.CreateProgram(ctx, "vector_add")
	if err != nil {
		return err
	}
	if err := c.BuildProgram(prog, ""); err != nil {
		return err
	}
	k, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		return err
	}
	c.SetKernelArgBuffer(k, 0, ba)
	c.SetKernelArgBuffer(k, 1, bb)
	c.SetKernelArgBuffer(k, 2, bo)
	c.SetKernelArgScalar(k, 3, cl.ArgU32(uint32(n)))
	if err := c.EnqueueNDRange(q, k, []uint64{uint64(n)}, []uint64{256}); err != nil {
		return err
	}
	out := make([]byte, 4*n)
	if err := c.EnqueueRead(q, bo, true, 0, out); err != nil {
		return err
	}
	return c.DeferredError()
}

// Sharing reproduces the §4.3 resource-management claims: the router's
// schedulers arbitrate contending VMs at call granularity. Two VMs issue
// identical kernel streams; the table compares their device-time shares
// under FIFO and fair scheduling, and shows rate limiting throttling a VM.
func Sharing(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E4/Sharing",
		Title:  "Cross-VM sharing policies at the router",
		Header: []string{"policy", "vm1-launches", "vm2-launches", "vm1-stall", "vm2-stall"},
	}

	run := func(sched hv.Scheduler) ([2]uint64, [2]time.Duration, error) {
		silo := gpuSilo(0)
		stack := clStack(silo, false, ava.WithScheduler(sched))
		defer stack.Close()
		c1, err := clRemote(stack, 1)
		if err != nil {
			return [2]uint64{}, [2]time.Duration{}, err
		}
		c2, err := clRemote(stack, 2)
		if err != nil {
			return [2]uint64{}, [2]time.Duration{}, err
		}
		done := make(chan error, 2)
		work := func(c cl.Client) {
			w, _ := rodinia.ByName("pathfinder")
			_, err := w.Run(c, opts.scale())
			done <- err
		}
		go work(c1)
		go work(c2)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				return [2]uint64{}, [2]time.Duration{}, err
			}
		}
		s1, _ := stack.Router.Stats(1)
		s2, _ := stack.Router.Stats(2)
		return [2]uint64{s1.Forwarded, s2.Forwarded}, [2]time.Duration{s1.Stall, s2.Stall}, nil
	}

	// FIFO and fair share (equal weights; examples/multitenant shows
	// weighted shares).
	fwd, stall, err := run(hv.NewFIFOScheduler())
	if err != nil {
		return nil, err
	}
	t.Add("fifo", fmt.Sprint(fwd[0]), fmt.Sprint(fwd[1]), stall[0].Round(time.Microsecond).String(), stall[1].Round(time.Microsecond).String())

	fwd, stall, err = run(hv.NewFairScheduler(10 * time.Millisecond))
	if err != nil {
		return nil, err
	}
	t.Add("fair-share", fmt.Sprint(fwd[0]), fmt.Sprint(fwd[1]), stall[0].Round(time.Microsecond).String(), stall[1].Round(time.Microsecond).String())

	// Rate limiting: vm2 capped hard; its stall time dominates.
	{
		silo := gpuSilo(0)
		stack := clStack(silo, false)
		lib1, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
		if err != nil {
			return nil, err
		}
		lib2, err := stack.AttachVM(ava.VMConfig{ID: 2, Name: "vm2", CallsPerSec: 2000, CallBurst: 16})
		if err != nil {
			return nil, err
		}
		done := make(chan error, 2)
		work := func(lib *ava.GuestLib) {
			w, _ := rodinia.ByName("pathfinder")
			_, err := w.Run(cl.NewRemote(lib), opts.scale())
			done <- err
		}
		go work(lib1)
		go work(lib2)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				stack.Close()
				return nil, err
			}
		}
		s1, _ := stack.Router.Stats(1)
		s2, _ := stack.Router.Stats(2)
		t.Add("rate-limit(vm2)", fmt.Sprint(s1.Forwarded), fmt.Sprint(s2.Forwarded),
			s1.Stall.Round(time.Microsecond).String(), s2.Stall.Round(time.Microsecond).String())
		stack.Close()
	}
	t.Note("equal fair-share usage with bounded lead; rate-limited VM accumulates stall while the other runs free")
	return t, nil
}

// Swap reproduces the §4.3 memory-oversubscription claim: buffer-object-
// granularity swapping lets aggregate allocations exceed device memory
// without exposing OOM to guests.
func Swap(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E5/Swap",
		Title:  "Device memory oversubscription via buffer-granularity swapping",
		Header: []string{"oversubscription", "buffers", "evictions", "runtime", "result"},
	}
	const devMem = 8 << 20
	const bufSize = 1 << 20
	for _, factor := range []int{1, 2, 4} {
		count := factor * devMem / bufSize
		silo := gpuSilo(devMem)
		stack, mgr := clStackSwap(silo)
		c, err := clRemote(stack, 1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ok, err := swapWorkload(c, count, bufSize)
		elapsed := time.Since(start)
		evictions := mgr.Stats().Evictions
		stack.Close()
		if err != nil {
			return nil, err
		}
		res := "all buffers intact"
		if !ok {
			res = "CORRUPTED"
		}
		t.Add(fmt.Sprintf("%dx", factor), fmt.Sprint(count), fmt.Sprint(evictions), ms(elapsed), res)
	}
	t.Note("without the swap manager the 2x and 4x rows fail with CL_MEM_OBJECT_ALLOCATION_FAILURE")
	return t, nil
}

func swapWorkload(c cl.Client, count, bufSize int) (bool, error) {
	ps, err := c.PlatformIDs()
	if err != nil {
		return false, err
	}
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, err := c.CreateContext(ds)
	if err != nil {
		return false, err
	}
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	bufs := make([]cl.Ref, count)
	for i := range bufs {
		b, err := c.CreateBuffer(ctx, 1, uint64(bufSize))
		if err != nil {
			return false, err
		}
		bufs[i] = b
		pat := make([]byte, bufSize)
		for j := range pat {
			pat[j] = byte(i)
		}
		if err := c.EnqueueWrite(q, b, true, 0, pat); err != nil {
			return false, err
		}
	}
	got := make([]byte, bufSize)
	for i := range bufs {
		if err := c.EnqueueRead(q, bufs[i], true, 0, got); err != nil {
			return false, err
		}
		for _, x := range got {
			if x != byte(i) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Migration reproduces the §4.3 migration claim: record/replay plus
// synthesized device copies moves a running guest between API servers. Two
// hosts announce to a fleet registry; the guest, placed on one, fills its
// buffers and is moved to the other by Stack.MigrateVM — the guardian cuts a
// checkpoint, its dialer relocates, and recovery replays the shadow log onto
// the target — then reads every buffer back through the same library and
// handles it had before the move.
func Migration(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E6/Migration",
		Title:  "VM migration by record/replay + device buffer copies",
		Header: []string{"buffers", "state", "checkpoint", "ckpt-shipped", "ckpt-footprint", "recovery-pause", "moved", "verified"},
	}
	for _, bufCount := range []int{4, 16, 64} {
		row, err := migrationRun(bufCount, 256<<10)
		if err != nil {
			return nil, err
		}
		t.Add(row...)
	}
	t.Note("checkpoint = MigrateVM's quiesced checkpoint (it returns once the checkpoint is cut and the link severed); ckpt-shipped = Stats.LastCkptBytes, the payload that checkpoint moved (a delta when a periodic checkpoint, every 64 calls, came before it); ckpt-footprint = Stats.LastCkptFootprint, the object state it covers; recovery-pause = Stats.LastRecoveryPause, the dial + replay onto the target")
	t.Note("verified = every buffer read back after the move, byte for byte, through the guest library and handles the application held before it")
	return t, nil
}

func migrationRun(bufCount, bufSize int) ([]string, error) {
	loc := fleet.NewRegistry(0, nil)
	var hosts []*host.Server
	defer func() {
		for _, h := range hosts {
			h.Kill()
		}
	}()
	for _, id := range []string{"host-a", "host-b"} {
		h, err := fleetHost(id, loc)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	stack, lib, err := fleetGuest(ava.TransportInProc, loc, "vm1", 1)
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	c := cl.NewRemote(lib)
	ps, _ := c.PlatformIDs()
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, err := c.CreateContext(ds)
	if err != nil {
		return nil, err
	}
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	bufs := make([]cl.Ref, bufCount)
	for i := range bufs {
		bufs[i], err = c.CreateBuffer(ctx, 1, uint64(bufSize))
		if err != nil {
			return nil, err
		}
		pat := make([]byte, bufSize)
		for j := range pat {
			pat[j] = byte(i * 13)
		}
		if err := c.EnqueueWrite(q, bufs[i], true, 0, pat); err != nil {
			return nil, err
		}
	}

	from, to := stack.VMHost(1), "host-b"
	if from == to {
		to = "host-a"
	}
	start := time.Now()
	if err := stack.MigrateVM(1, to); err != nil {
		return nil, err
	}
	ckptTime := time.Since(start)

	// The first call after the move waits out the recovery, then runs on
	// the target.
	verified := true
	got := make([]byte, bufSize)
	for i := range bufs {
		if err := c.EnqueueRead(q, bufs[i], true, 0, got); err != nil {
			return nil, err
		}
		for _, x := range got {
			if x != byte(i*13) {
				verified = false
			}
		}
	}
	gs := stack.Guardian(1).Stats()
	if at := stack.VMHost(1); at != to || gs.Recoveries != 1 {
		return nil, fmt.Errorf("migration to %s ended on %q after %d recoveries", to, at, gs.Recoveries)
	}
	if n := lib.Stats().RetryableFailed; n != 0 {
		return nil, fmt.Errorf("migration failed %d calls back to the application", n)
	}
	v := "yes"
	if !verified {
		v = "NO"
	}
	return []string{
		fmt.Sprint(bufCount), fmt.Sprintf("%dMB", bufCount*bufSize>>20), ms(ckptTime),
		fmt.Sprintf("%.1fMB", float64(gs.LastCkptBytes)/(1<<20)),
		fmt.Sprintf("%.1fMB", float64(gs.LastCkptFootprint)/(1<<20)), ms(gs.LastRecoveryPause),
		from + "->" + to, v,
	}, nil
}

// Transports reproduces the pluggable-transport claim (§1, §4.1): the same
// stack runs over hypercall-style channels, SVGA-style shared-memory rings,
// and TCP for disaggregated accelerators.
func Transports(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E8/Transports",
		Title:  "Pluggable transports (vector add, 64K elements)",
		Header: []string{"transport", "native", "remoted", "relative"},
	}
	n := 1 << 16
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
	}
	native, err := timeIt(opts.reps(), func() error {
		return vectorAdd(cl.NewNative(gpuSilo(0)), a, b)
	})
	if err != nil {
		return nil, err
	}
	for _, kind := range benchTransports {
		remote, err := timeIt(opts.reps(), func() error {
			stack, stop, err := transportStack(kind, gpuSilo(0))
			if err != nil {
				return err
			}
			defer stop()
			c, err := clRemote(stack, 1)
			if err != nil {
				return err
			}
			return vectorAdd(c, a, b)
		})
		if err != nil {
			return nil, err
		}
		t.Add(kind, ms(native), ms(remote), fmt.Sprintf("%.2fx", ratio(remote, native)))
	}
	return t, nil
}

package bench

import (
	"fmt"
	"sync"
	"time"

	"ava/internal/cl"
	"ava/internal/devsim"
)

// pipelineSilo builds the GPU for the pipelining sweep. Device costs are
// set well above the clock's busy-spin threshold so a blocking transfer
// genuinely parks its caller, and the compute-unit/DMA model admits as many
// concurrent operations as the sweep issues — the benchmark then measures
// the remoting stack's ability to keep independent calls in flight, not
// the simulated device's occupancy limit.
func pipelineSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:         "pipeline-gpu",
			MemoryBytes:  2 << 30,
			ComputeUnits: 16,
			// No KernelOverhead/DMABandwidth refinement: one flat latency
			// per transfer keeps per-call device time identical across
			// goroutine counts.
			DMALatency: 400 * time.Microsecond,
		}},
	})
}

// pipelineClient builds a remoted OpenCL client over one of benchTransports.
func pipelineClient(kind string) (*cl.RemoteClient, func(), error) {
	stack, stop, err := transportStack(kind, pipelineSilo())
	if err != nil {
		return nil, nil, err
	}
	c, err := clRemote(stack, 1)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return c, stop, nil
}

// pipelineRun drives the given number of concurrent guest threads against
// one Lib, each issuing blocking transfers on its own command queue (= its
// own ordering domain), and returns the wall time for all of them.
func pipelineRun(c *cl.RemoteClient, goroutines, calls int) (time.Duration, error) {
	ps, err := c.PlatformIDs()
	if err != nil {
		return 0, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeAll)
	if err != nil {
		return 0, err
	}
	ctx, err := c.CreateContext(ds[:1])
	if err != nil {
		return 0, err
	}
	defer c.ReleaseContext(ctx)

	src := make([]byte, 4096)
	queues := make([]cl.Ref, goroutines)
	bufs := make([]cl.Ref, goroutines)
	for i := range queues {
		if queues[i], err = c.CreateQueue(ctx, ds[0], 0); err != nil {
			return 0, err
		}
		defer c.ReleaseQueue(queues[i])
		if bufs[i], err = c.CreateBuffer(ctx, 0, uint64(len(src))); err != nil {
			return 0, err
		}
		defer c.ReleaseBuffer(bufs[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := c.EnqueueWrite(queues[g], bufs[g], true, 0, src); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	return elapsed, nil
}

// Pipeline (E10) measures how synchronous-call throughput scales with the
// number of guest threads issuing calls on independent command queues. A
// serial remoting stack is pinned near 1x: every blocking call holds the
// channel until its reply returns. The pipelined stack (concurrent
// in-flight calls at the guest, per-domain dispatch workers at the server)
// should scale until the device model or a serial stack stage saturates.
func Pipeline(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E10/Pipeline",
		Title:  "Pipelined remoting: sync-call throughput vs guest threads",
		Header: []string{"transport", "threads", "calls", "time", "calls/s", "scaling"},
	}
	calls := 32 * opts.scale()
	for _, kind := range benchTransports {
		var base float64
		for _, n := range []int{1, 2, 4, 8} {
			// timeIt would fold stack setup into the measurement; time the
			// call section alone and keep the minimum across reps.
			var elapsed time.Duration
			for r := 0; r < opts.reps(); r++ {
				c, cleanup, err := pipelineClient(kind)
				if err != nil {
					return nil, fmt.Errorf("%s/%d: %w", kind, n, err)
				}
				d, runErr := pipelineRun(c, n, calls)
				cleanup()
				if runErr != nil {
					return nil, fmt.Errorf("%s/%d: %w", kind, n, runErr)
				}
				if elapsed == 0 || d < elapsed {
					elapsed = d
				}
			}
			rate := float64(n*calls) / elapsed.Seconds()
			if n == 1 {
				base = rate
			}
			t.Add(kind, fmt.Sprint(n), fmt.Sprint(n*calls), ms(elapsed),
				fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", rate/base))
		}
	}
	t.Note("each thread owns a command queue (one ordering domain); every call is a blocking 4KB write costing 400us of modeled device time")
	return t, nil
}

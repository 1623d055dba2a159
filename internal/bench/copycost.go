package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// CopyCost is E14: where the data plane's bytes go. The zero-copy work
// (scatter-gather TCP sends, registered buffers on shared-address-space
// transports, delta checkpoints) claims that large-transfer cost should be
// bounded by the copies the hardware demands, not the ones the remoting
// stack adds. This experiment isolates those stack-added copies three
// ways: the marshal stage alone (encode-with-copy vs borrowed segments),
// end-to-end H2D/D2H transfers on every transport with the device's
// simulated DMA costs zeroed (so only marshal+copy+transport time
// remains), and checkpoint payloads (full snapshot vs dirty-range delta).
func CopyCost(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E14/CopyCost",
		Title:  "Zero-copy data plane: marshal+copy cost and checkpoint deltas",
		Header: []string{"stage", "mode", "ns/byte", "copied", "borrowed", "alloc B/transfer"},
	}

	const payloadN = 256 << 10
	iters := 8 * opts.scale()

	// --- Marshal stage: encode a large-payload call with the copying
	// encoder vs the scatter-gather encoder that borrows the payload.
	payload := make([]byte, payloadN)
	for i := range payload {
		payload[i] = byte(i)
	}
	call := &marshal.Call{Seq: 1, Func: 7, Args: []marshal.Value{
		marshal.Uint(42), marshal.BytesVal(payload),
	}}
	buf := make([]byte, 0, payloadN+4096)
	marshalBytes := int64(payloadN) * int64(iters)
	copyDur, err := timeIt(opts.reps(), func() error {
		for i := 0; i < iters; i++ {
			buf = marshal.AppendCall(buf[:0], call)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sgDur, err := timeIt(opts.reps(), func() error {
		for i := 0; i < iters; i++ {
			buf, _ = marshal.AppendCallSegments(buf[:0], call, marshal.SegmentThreshold)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("marshal", "copy", nsPerByte(copyDur, marshalBytes), size(marshalBytes), size(0), "-")
	t.Add("marshal", "scatter-gather", nsPerByte(sgDur, marshalBytes), size(0), size(marshalBytes), "-")
	t.AddMetric("marshal-copy", "ns/B", nsbFloat(copyDur, marshalBytes))
	t.AddMetric("marshal-scatter-gather", "ns/B", nsbFloat(sgDur, marshalBytes))
	t.AddMetric("marshal-copy-throughput", "B/s", bytesPerSec(copyDur, marshalBytes))
	t.AddMetric("marshal-scatter-gather-throughput", "B/s", bytesPerSec(sgDur, marshalBytes))
	t.Note("marshal copy vs scatter-gather: %.1fx less time per byte", ratio(copyDur, sgDur))

	// --- End-to-end transfers. The silo's simulated DMA cost is zero, so
	// wall time is marshal + copies + transport — exactly the stack's
	// contribution the zero-copy paths attack. The copied/borrowed columns
	// count bytes moved; what moving them costs in memory management shows
	// in the last column, the process's allocated bytes per transfer (guest,
	// transport and server together: a payload-sized buffer made fresh per
	// call is one transfer's size there, a recycled one is nothing).
	type xferResult struct {
		dur      time.Duration
		copied   uint64
		borrowed uint64
		alloc    uint64 // runtime.MemStats.TotalAlloc delta per transfer
	}
	transfer := func(kind string, zc bool, d2h bool) (xferResult, error) {
		var r xferResult
		var lib *guest.Lib
		var cleanup func()
		switch kind {
		case "tcp":
			var err error
			lib, cleanup, err = tcpDirectLib(zc)
			if err != nil {
				return r, err
			}
		default:
			tk := ava.TransportInProc
			if kind == "shm-ring" {
				tk = ava.TransportRing
			}
			stack := clStack(freeSilo(), false, ava.WithTransport(tk))
			var err error
			lib, err = stack.AttachVM(ava.VMConfig{ID: 1, Name: "e14-vm"},
				guest.WithZeroCopy(zc))
			if err != nil {
				stack.Close()
				return r, err
			}
			cleanup = stack.Close
		}
		defer cleanup()

		// The transfer source/destination lives in a registered region, so
		// on shared-address-space transports (with zero-copy on) writes and
		// reads take the registered-buffer fast path. TCP has no registry:
		// its zero-copy form is the scatter-gather send.
		region := make([]byte, payloadN)
		for i := range region {
			region[i] = byte(3 * i)
		}
		id := lib.RegisterBuffer(region)
		defer lib.UnregisterBuffer(id)

		c := cl.NewRemote(lib)
		q, mem, err := clTransferSetup(c, payloadN)
		if err != nil {
			return r, err
		}
		if d2h {
			// Populate the device buffer once so reads return real data.
			if err := c.EnqueueWrite(q, mem, true, 0, region); err != nil {
				return r, err
			}
		}
		xfer := func() error {
			if d2h {
				return c.EnqueueRead(q, mem, true, 0, region)
			}
			return c.EnqueueWrite(q, mem, true, 0, region)
		}
		// One untimed transfer first: what the table reports is the steady
		// state, not the first call's drawing of its buffers.
		if err := xfer(); err != nil {
			return r, err
		}
		before := lib.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := xfer(); err != nil {
				return r, err
			}
		}
		r.dur = time.Since(start)
		runtime.ReadMemStats(&m1)
		r.alloc = (m1.TotalAlloc - m0.TotalAlloc) / uint64(iters)
		after := lib.Stats()
		r.copied = after.BytesCopied - before.BytesCopied
		r.borrowed = after.BytesBorrowed - before.BytesBorrowed
		return r, nil
	}

	xferBytes := int64(payloadN) * int64(iters)
	xferCases := []struct {
		stage  string
		kind   string
		d2h    bool
		zcName string
	}{
		{"tcp h2d", "tcp", false, "scatter-gather"},
		{"tcp d2h", "tcp", true, "scatter-gather"},
		{"shm-ring h2d", "shm-ring", false, "regref"},
		{"shm-ring d2h", "shm-ring", true, "regref"},
		{"inproc h2d", "inproc", false, "regref"},
		{"inproc d2h", "inproc", true, "regref"},
	}
	for _, cse := range xferCases {
		run := func(zc bool) (xferResult, error) {
			best := xferResult{}
			for rep := 0; rep < opts.reps(); rep++ {
				r, err := transfer(cse.kind, zc, cse.d2h)
				if err != nil {
					return r, fmt.Errorf("%s: %w", cse.stage, err)
				}
				if best.dur == 0 || r.dur < best.dur {
					best = r
				}
			}
			return best, nil
		}
		cp, err := run(false)
		if err != nil {
			return nil, err
		}
		zc, err := run(true)
		if err != nil {
			return nil, err
		}
		t.Add(cse.stage, "copy", nsPerByte(cp.dur, xferBytes), size(int64(cp.copied)), size(int64(cp.borrowed)), size(int64(cp.alloc)))
		t.Add(cse.stage, cse.zcName, nsPerByte(zc.dur, xferBytes), size(int64(zc.copied)), size(int64(zc.borrowed)), size(int64(zc.alloc)))
		key := strings.ReplaceAll(cse.stage, " ", "-")
		t.AddMetric(key+"-copy", "ns/B", nsbFloat(cp.dur, xferBytes))
		t.AddMetric(key+"-"+cse.zcName, "ns/B", nsbFloat(zc.dur, xferBytes))
		t.AddMetric(key+"-copy-alloc", "B/transfer", float64(cp.alloc))
		t.AddMetric(key+"-"+cse.zcName+"-alloc", "B/transfer", float64(zc.alloc))
		t.AddMetric(key+"-copy-throughput", "B/s", bytesPerSec(cp.dur, xferBytes))
		t.AddMetric(key+"-"+cse.zcName+"-throughput", "B/s", bytesPerSec(zc.dur, xferBytes))
		t.Note("%s copy vs %s: %.1fx less time per byte", cse.stage, cse.zcName, ratio(cp.dur, zc.dur))
	}

	// --- Checkpoints: a full snapshot ships the device footprint; a delta
	// checkpoint ships only the ranges written since the last one.
	const bufN = 4 << 20
	const touchN = 64 << 10
	shippedFull, shippedDelta, err := checkpointDelta(bufN, touchN)
	if err != nil {
		return nil, err
	}
	t.Add("checkpoint", "full", "-", size(shippedFull), size(0), "-")
	t.Add("checkpoint", fmt.Sprintf("delta(%s touched)", size(touchN)), "-", size(shippedDelta), size(0), "-")
	t.AddMetric("checkpoint-full", "B", float64(shippedFull))
	t.AddMetric("checkpoint-delta", "B", float64(shippedDelta))
	t.AddMetric("checkpoint-touched", "B", float64(touchN))
	t.Note("delta checkpoint ships %s of a %s footprint after touching %s (%.1fx fewer bytes)",
		size(shippedDelta), size(bufN), size(touchN),
		float64(shippedFull)/float64(max(shippedDelta, 1)))
	return t, nil
}

// freeSilo builds a GPU whose simulated hardware costs are all zero, so
// E14 measures only what the remoting stack itself spends per byte.
func freeSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "e14-gpu", MemoryBytes: 1 << 30}},
	})
}

// tcpDirectLib attaches a guest library straight to a disaggregated API
// server over a real TCP socket — no router hop, so the guest holds the
// TCP endpoint and its scatter-gather send path can engage.
func tcpDirectLib(zc bool) (*guest.Lib, func(), error) {
	silo := freeSilo()
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	srv := server.New(reg)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() {
		ep, err := l.Accept()
		if err != nil {
			return
		}
		srv.ServeVM(srv.Context(1, "e14-vm"), ep)
	}()
	ep, err := transport.Dial(l.Addr())
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	lib := guest.New(desc, ep, guest.WithZeroCopy(zc))
	cleanup := func() {
		lib.Close()
		ep.Close()
		l.Close()
	}
	return lib, cleanup, nil
}

// clTransferSetup runs the OpenCL boilerplate down to one device buffer of
// n bytes and returns the queue and buffer refs.
func clTransferSetup(c *cl.RemoteClient, n uint64) (cl.Ref, cl.Ref, error) {
	ps, err := c.PlatformIDs()
	if err != nil {
		return cl.Ref{}, cl.Ref{}, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return cl.Ref{}, cl.Ref{}, err
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		return cl.Ref{}, cl.Ref{}, err
	}
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		return cl.Ref{}, cl.Ref{}, err
	}
	mem, err := c.CreateBuffer(ctx, 1, n)
	if err != nil {
		return cl.Ref{}, cl.Ref{}, err
	}
	return q, mem, nil
}

// checkpointDelta cuts a full checkpoint of a bufN-byte device buffer,
// touches touchN bytes, cuts a second checkpoint, and reports the payload
// bytes each one shipped (guardian stats).
func checkpointDelta(bufN, touchN int) (full, delta int64, err error) {
	silo := freeSilo()
	stack := clStack(silo, false, ava.WithFailover(ava.FailoverConfig{}))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "e14-ckpt-vm"})
	if err != nil {
		return 0, 0, err
	}
	c := cl.NewRemote(lib)
	q, mem, err := clTransferSetup(c, uint64(bufN))
	if err != nil {
		return 0, 0, err
	}
	data := make([]byte, bufN)
	for i := range data {
		data[i] = byte(7 * i)
	}
	if err := c.EnqueueWrite(q, mem, true, 0, data); err != nil {
		return 0, 0, err
	}
	g := stack.Guardian(1)
	if err := g.CheckpointNow(); err != nil {
		return 0, 0, err
	}
	full = int64(g.Stats().LastCkptBytes)
	if err := c.EnqueueWrite(q, mem, true, uint64(bufN-touchN), data[:touchN]); err != nil {
		return 0, 0, err
	}
	if err := g.CheckpointNow(); err != nil {
		return 0, 0, err
	}
	gs := g.Stats()
	if gs.DeltaCheckpoints == 0 {
		return 0, 0, fmt.Errorf("bench: second checkpoint did not use the delta path")
	}
	delta = int64(gs.LastCkptBytes)
	return full, delta, nil
}

func nsPerByte(d time.Duration, bytes int64) string {
	if bytes <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", nsbFloat(d, bytes))
}

func nsbFloat(d time.Duration, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(bytes)
}

func bytesPerSec(d time.Duration, bytes int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds()
}

// size renders a byte count with a binary-unit suffix.
func size(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

package bench

import (
	"fmt"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/guest"
	"ava/internal/mvnc"
	"ava/internal/server"
	"ava/internal/swap"
)

// gpuSilo builds the standard benchmark GPU. The hardware model charges
// realistic discrete-GPU costs — kernel launch latency and PCIe DMA
// setup/bandwidth — which both the native and the remoted path pay
// identically, exactly as the paper's GTX 1080 baseline does. Without
// them the "native" path would be an unrealistically free function call
// and every remoting ratio would be inflated.
func gpuSilo(memBytes uint64) *cl.Silo {
	if memBytes == 0 {
		memBytes = 2 << 30
	}
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:           "bench-gpu",
			MemoryBytes:    memBytes,
			ComputeUnits:   8,
			KernelOverhead: 8 * time.Microsecond,  // GPU launch latency
			DMALatency:     10 * time.Microsecond, // PCIe transaction setup
			DMABandwidth:   12e9,                  // ~PCIe 3.0 x16
		}},
	})
}

// stackObserver, when set, sees every stack a benchmark assembles, for
// the lifetime of that experiment. avabench's -ctl wiring uses it to
// point the control endpoint at whichever stack is currently running, so
// `avactl stats` mid-experiment reads live counters.
var stackObserver func(*ava.Stack)

// SetStackObserver installs fn as the stack observer. Call before any
// experiment runs; experiments themselves run serially.
func SetStackObserver(fn func(*ava.Stack)) { stackObserver = fn }

func observe(stack *ava.Stack) *ava.Stack {
	if stackObserver != nil {
		stackObserver(stack)
	}
	return stack
}

// clStack assembles a full OpenCL AvA deployment and returns the stack.
func clStack(silo *cl.Silo, withSwap bool, opts ...ava.Option) *ava.Stack {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	if withSwap {
		swap.NewManager(silo).Install(reg)
	}
	return observe(ava.NewStack(desc, reg, opts...))
}

// benchTransports are the three south hops E8, E10 and E12 compare.
var benchTransports = []string{"inproc", "shm-ring", "tcp(disagg)"}

// transportStack assembles an OpenCL deployment over silo on one of
// benchTransports: "inproc" and "shm-ring" serve the VM from the stack's
// own server over that transport; "tcp(disagg)" starts a standalone
// API-server machine on loopback (internal/host, what avad runs) and points
// the stack at its address — §4.1's disaggregated configuration. stop tears
// down the stack and the machine.
func transportStack(kind string, silo *cl.Silo, opts ...ava.Option) (stack *ava.Stack, stop func(), err error) {
	switch kind {
	case "inproc":
		stack = clStack(silo, false, opts...)
	case "shm-ring":
		stack = clStack(silo, false, append(opts, ava.WithTransport(ava.TransportRing))...)
	case "tcp(disagg)":
		h, err := siloHost(silo, "", nil)
		if err != nil {
			return nil, nil, err
		}
		stack = observe(ava.NewStack(cl.Descriptor(), nil, append(opts, ava.WithRemoteServer(h.Addr()))...))
		return stack, func() { stack.Close(); h.Shutdown() }, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown transport %q", kind)
	}
	return stack, stack.Close, nil
}

// clRemote attaches one VM and returns its remote client.
func clRemote(stack *ava.Stack, id uint32, opts ...guest.Option) (*cl.RemoteClient, error) {
	lib, err := stack.AttachVM(ava.VMConfig{ID: id, Name: vmName(id)}, opts...)
	if err != nil {
		return nil, err
	}
	return cl.NewRemote(lib), nil
}

func vmName(id uint32) string {
	return "vm" + string(rune('0'+id%10))
}

// mvncStack assembles an MVNC deployment.
func mvncStack(opts ...ava.Option) (*ava.Stack, *mvnc.Silo) {
	silo := mvnc.NewSilo(mvnc.Config{Sticks: 1})
	desc := mvnc.Descriptor()
	reg := server.NewRegistry(desc)
	mvnc.BindServer(reg, silo)
	return observe(ava.NewStack(desc, reg, opts...)), silo
}

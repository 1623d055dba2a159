package bench

import (
	"fmt"
	"math"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/rodinia"
	"ava/internal/server"
)

// fleetHost starts one API-server machine: its own silo and server behind
// the production host runtime (internal/host — the type cmd/avad runs),
// announcing to loc. A nil loc is a standalone machine reached by address.
func fleetHost(id string, loc fleet.Locator) (*host.Server, error) {
	return siloHost(gpuSilo(0), id, loc)
}

func siloHost(silo *cl.Silo, id string, loc fleet.Locator) (*host.Server, error) {
	reg := server.NewRegistry(cl.Descriptor())
	cl.BindServer(reg, silo)
	return host.Start(server.New(reg), host.Config{
		Listen: "127.0.0.1:0", API: "opencl", Locator: loc, ID: id,
	})
}

// e12Failover is the guardian tuning E12, E13 and E16 share.
func e12Failover(seed int64) ava.FailoverConfig {
	return ava.FailoverConfig{
		Checkpoint: ava.CheckpointConfig{Every: 64},
		Backoff:    failover.BackoffConfig{Seed: seed},
	}
}

// fleetGuest attaches VM 1 to a guest-side stack with no local server to
// fall back on: every server incarnation is placed out of the fleet.
// extra options apply after WithFailover, which replaces the whole
// failover config (ava.WithMirror must come behind it).
func fleetGuest(kind ava.TransportKind, loc fleet.Locator, name string, seed int64, extra ...ava.Option) (*ava.Stack, *ava.GuestLib, error) {
	stack := observe(ava.NewStack(cl.Descriptor(), nil, append([]ava.Option{
		ava.WithTransport(kind),
		ava.WithFailover(e12Failover(seed)),
		ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "opencl"}),
	}, extra...)...))
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: name})
	if err != nil {
		stack.Close()
		return nil, nil, err
	}
	return stack, lib, nil
}

// fleetTransports are the stacks E13 and E16 run over: the guest↔router
// hop varies (hypercall-like vs shared-memory rings); the router↔server
// hop is a real TCP socket to the fleet host in both.
var fleetTransports = []struct {
	name string
	kind ava.TransportKind
}{
	{"inproc+tcp", ava.TransportInProc},
	{"shm-ring+tcp", ava.TransportRing},
}

// fleetResult is what E13 and E16 judge a run by.
type fleetResult struct {
	dur     time.Duration
	sum     float64
	gs      failover.Stats
	retry   uint64
	changes int
	host    string
}

// runGaussian times one run of w through lib and collects the verdict
// inputs from the guardian and the placement log behind it.
func runGaussian(w rodinia.Workload, scale int, stack *ava.Stack, lib *ava.GuestLib) (fleetResult, error) {
	var r fleetResult
	var err error
	start := time.Now()
	r.sum, err = w.Run(cl.NewRemote(lib), scale)
	r.dur = time.Since(start)
	r.gs = stack.Guardian(1).Stats()
	r.retry = lib.Stats().RetryableFailed
	for _, d := range stack.SchedDecisions() {
		if d.Kind == "failover" {
			r.changes++
		}
	}
	r.host = stack.VMHost(1)
	return r, err
}

// CrossHost is E13: kill the entire machine serving the VM mid-gaussian —
// listener, connections and silo all gone — and complete the workload on a
// peer host selected through the fleet registry, byte-identical to an
// undisturbed run. This is the cross-host extension of E12: the guardian's
// respawn budget fails against the dead endpoint, the registry-backed
// dialer excludes the dead host and picks the best live peer, and the
// record-log replay reconstructs every buffer on the peer's fresh silo.
func CrossHost(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E13/CrossHost",
		Title:  "Cross-host failover: serving machine killed mid-gaussian, replay on a fleet peer",
		Header: []string{"transport", "undisturbed", "with kill", "recovery pause", "identical", "served-by"},
	}
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		return nil, fmt.Errorf("bench: gaussian workload missing")
	}
	scale := opts.scale()

	run := func(kind ava.TransportKind, killAfter time.Duration) (fleetResult, error) {
		loc := fleet.NewRegistry(0, nil)
		// Both hosts announce load 0, so the registry's ID tie-break steers
		// the first dial to host-a deterministically; host-b is the
		// failover target.
		hostA, err := fleetHost("host-a", loc)
		if err != nil {
			return fleetResult{}, err
		}
		defer hostA.Kill()
		hostB, err := fleetHost("host-b", loc)
		if err != nil {
			return fleetResult{}, err
		}
		defer hostB.Kill()
		stack, lib, err := fleetGuest(kind, loc, "e13-vm", 13)
		if err != nil {
			return fleetResult{}, err
		}
		defer stack.Close()
		if killAfter > 0 {
			go func() {
				time.Sleep(killAfter)
				hostA.Kill()
			}()
		}
		return runGaussian(w, scale, stack, lib)
	}

	for _, tr := range fleetTransports {
		base, err := run(tr.kind, 0)
		if err != nil {
			return nil, fmt.Errorf("%s undisturbed: %w", tr.name, err)
		}
		killAt := base.dur / 3
		if killAt < time.Millisecond {
			killAt = time.Millisecond
		}
		killed, err := run(tr.kind, killAt)
		if err != nil {
			return nil, fmt.Errorf("%s killed run: %w", tr.name, err)
		}
		identical := math.Float64bits(killed.sum) == math.Float64bits(base.sum) &&
			killed.retry == 0 && killed.gs.Recoveries >= 1 && killed.changes >= 1
		t.Add(tr.name, ms(base.dur), ms(killed.dur), ms(killed.gs.LastRecoveryPause),
			fmt.Sprintf("%v", identical), killed.host)
	}
	t.Note("identical = bitwise-equal checksum vs the undisturbed run, >=1 recovery, >=1 cross-host move, zero calls dropped (E13 acceptance)")
	t.Note("the killed run finishes on a different machine with a cold silo: replay rebuilds every buffer from the shadow log")
	return t, nil
}

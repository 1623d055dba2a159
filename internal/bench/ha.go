package bench

import (
	"fmt"
	"math"
	"time"

	"ava"
	"ava/internal/backoff"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/rodinia"
	"ava/internal/server"
)

// haRetry keeps probes of a dead replica from dragging the run out while
// staying a real jittered-backoff series.
func haRetry() backoff.Config {
	return backoff.Config{Base: time.Millisecond, Cap: 5 * time.Millisecond, Budget: 100 * time.Millisecond, Seed: 17}
}

// HA is E16: the full replicated control plane — two registry replicas
// behind a quorum-reading MultiClient, two serving hosts, and a remote
// mirror host accumulating the guardian's shadow log — with any single
// machine SIGKILLed at one third of the runtime. Three scenarios per
// transport stack:
//
//   - host: the serving machine dies; the guardian replays onto the fleet
//     peer chosen through the (still replicated) registry — E13 plus a
//     remote mirror that must converge afterwards.
//   - mirror: the mirror machine dies; replication is a durability
//     upgrade, never a liveness dependency, so the run must not notice.
//   - registry: one registry replica dies, and to prove the survivor
//     actually carries the control plane, the serving host dies later in
//     the same run — failover must route through the surviving replica.
//
// Every scenario must complete byte-identical to the undisturbed run.
func HA(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E16/HA",
		Title:  "Replicated control plane: serving host, mirror host, or registry replica killed mid-gaussian",
		Header: []string{"transport", "killed", "undisturbed", "with kill", "recovery pause", "identical", "served-by"},
	}
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		return nil, fmt.Errorf("bench: gaussian workload missing")
	}
	scale := opts.scale()

	type result struct {
		fleetResult
		mirrorOK bool
	}
	run := func(kind ava.TransportKind, scenario string, killAt time.Duration) (result, error) {
		var r result
		regA, err := host.StartRegistry(host.RegistryConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			return r, err
		}
		defer regA.Kill()
		regB, err := host.StartRegistry(host.RegistryConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			return r, err
		}
		defer regB.Kill()
		cA, cB := fleet.DialRegistry(regA.Addr()), fleet.DialRegistry(regB.Addr())
		cA.SetRetry(haRetry())
		cB.SetRetry(haRetry())
		mc := fleet.NewMultiClient(cA, cB)
		defer mc.Close()

		hostA, err := fleetHost("host-a", mc)
		if err != nil {
			return r, err
		}
		defer hostA.Kill()
		hostB, err := fleetHost("host-b", mc)
		if err != nil {
			return r, err
		}
		defer hostB.Kill()
		// The mirror machine is an `avad -mirror` outside the fleet: it
		// announces nowhere, so no VM is ever placed on it.
		mir, err := host.Start(server.New(server.NewRegistry(cl.Descriptor())), host.Config{
			Listen: "127.0.0.1:0", Mirror: "127.0.0.1:0",
		})
		if err != nil {
			return r, err
		}
		defer mir.Kill()
		rm := failover.NewRemoteMirror(mir.MirrorAddr(), failover.RemoteMirrorConfig{
			VM: 1, Name: "e16-vm", Backoff: haRetry(),
		})
		defer rm.Close()

		stack, lib, err := fleetGuest(kind, mc, "e16-vm", 16, ava.WithMirror(rm))
		if err != nil {
			return r, err
		}
		defer stack.Close()

		switch scenario {
		case "host":
			go func() {
				time.Sleep(killAt)
				hostA.Kill()
			}()
		case "mirror":
			go func() {
				time.Sleep(killAt)
				mir.Kill()
			}()
		case "registry":
			go func() {
				time.Sleep(killAt)
				regA.Kill()
			}()
			go func() {
				time.Sleep(2 * killAt)
				hostA.Kill()
			}()
		}

		if r.fleetResult, err = runGaussian(w, scale, stack, lib); err != nil {
			return r, err
		}
		// Detach before judging the mirror: the guest's trailing async
		// releases can still reach the guardian, and cut one more
		// checkpoint, after the workload has returned.
		stack.Close()

		if scenario == "mirror" {
			// The mirror machine is gone; the staging copy is the proof that
			// a dead mirror host costs durability, not correctness.
			r.mirrorOK = rm.State().W > 0
		} else if r.mirrorOK = rm.Flush(5 * time.Second); r.mirrorOK {
			// Read back the way a replacement guardian would: over the wire.
			remote, err := failover.FetchMirrorState(mir.MirrorAddr(), 1)
			if err != nil {
				return r, err
			}
			staging := rm.State()
			r.mirrorOK = remote.W == staging.W && len(remote.Entries) == len(staging.Entries)
		}
		return r, nil
	}

	for _, tr := range fleetTransports {
		base, err := run(tr.kind, "", 0)
		if err != nil {
			return nil, fmt.Errorf("%s undisturbed: %w", tr.name, err)
		}
		if !base.mirrorOK {
			return nil, fmt.Errorf("%s undisturbed: mirror did not converge", tr.name)
		}
		killAt := base.dur / 3
		if killAt < time.Millisecond {
			killAt = time.Millisecond
		}
		for _, scenario := range []string{"host", "mirror", "registry"} {
			killed, err := run(tr.kind, scenario, killAt)
			if err != nil {
				return nil, fmt.Errorf("%s kill-%s run: %w", tr.name, scenario, err)
			}
			identical := math.Float64bits(killed.sum) == math.Float64bits(base.sum) &&
				killed.retry == 0 && killed.mirrorOK
			switch scenario {
			case "host", "registry":
				identical = identical && killed.gs.Recoveries >= 1 && killed.changes >= 1
			case "mirror":
				identical = identical && killed.gs.Recoveries == 0
			}
			t.Add(tr.name, scenario, ms(base.dur), ms(killed.dur), ms(killed.gs.LastRecoveryPause),
				fmt.Sprintf("%v", identical), killed.host)
		}
	}
	t.Note("identical = bitwise-equal checksum vs the undisturbed run, zero dropped calls, and the mirror converged to staging wherever the mirror host survived (E16 acceptance)")
	t.Note("registry rows also kill the serving host later in the run: failover must route through the surviving registry replica")
	t.Note("mirror rows require zero recoveries: a dead mirror host is a durability downgrade, never a data-path event")
	return t, nil
}

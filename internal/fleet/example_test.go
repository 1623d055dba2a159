package fleet_test

import (
	"fmt"
	"log"

	"ava/internal/fleet"
	"ava/internal/host"
)

// The in-process Registry is the simplest Locator: embed it directly when
// guest, router and server share one process (tests, single-host stacks).
func ExampleRegistry() {
	reg := fleet.NewRegistry(0, nil)
	reg.Announce(fleet.Member{ID: "gpu-host-a", Addr: "10.0.0.1:7272", API: "opencl", Load: 2})
	reg.Announce(fleet.Member{ID: "gpu-host-b", Addr: "10.0.0.2:7272", API: "opencl", Load: 0})

	ms, _ := reg.Live("opencl")
	for _, m := range ms {
		fmt.Printf("%s load=%d\n", m.ID, m.Load)
	}
	// Output:
	// gpu-host-b load=0
	// gpu-host-a load=2
}

// DialRegistry yields the wire-backed Locator: the same surface served by
// a remote avaregd over TCP. The client lazily dials, transparently
// redials a restarted registry, and retries transient failures under a
// bounded jittered backoff before reporting an error.
func ExampleDialRegistry() {
	// A real deployment points this at avaregd; here the same registry
	// host runs in-process on a loopback listener.
	reg, err := host.StartRegistry(host.RegistryConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Shutdown()

	loc := fleet.DialRegistry(reg.Addr())
	defer loc.Close()
	loc.Announce(fleet.Member{ID: "gpu-host-a", Addr: "10.0.0.1:7272", API: "opencl"})

	ms, err := loc.Live("opencl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(ms), "live")
	// Output:
	// 1 live
}

// DialRegistries yields the replicated Locator: announces fan out to
// every registry replica, Live quorum-reads and merges, so any single
// registry can die without placement or failover noticing. All three
// flavors satisfy Locator — FleetDialer, ava.WithPlacement and the
// rebalancer take whichever the deployment runs.
func ExampleDialRegistries() {
	regA, err := host.StartRegistry(host.RegistryConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer regA.Kill()
	regB, err := host.StartRegistry(host.RegistryConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer regB.Shutdown()

	loc := fleet.DialRegistries(regA.Addr(), regB.Addr())
	defer loc.Close()
	loc.Announce(fleet.Member{ID: "gpu-host-a", Addr: "10.0.0.1:7272", API: "opencl"})

	// The announce reached both replicas; either alone can answer.
	regA.Kill() // one registry machine dies
	ms, err := loc.Live("opencl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(ms), "live via the surviving replica")
	// Output:
	// 1 live via the surviving replica
}

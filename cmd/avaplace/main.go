// Command avaplace is a placement probe: it attaches one VM through the
// admission-time placement path (internal/sched) against a live fleet
// registry, runs one trivial call against whichever avad the policy
// picked, and prints the scheduling decision. It is the smallest
// end-to-end proof that discovery, ranking and dialing agree — CI's
// sched_smoke.sh boots a registry and two avads and requires exactly one
// "place" decision from this probe.
//
// Usage:
//
//	avaplace -registry 127.0.0.1:7400
//	avaplace -registry 127.0.0.1:7400 -vm 7 -policy spread
//	avaplace -registry reg-a:7400,reg-b:7400   # quorum-read across replicas
//
// Placement is a guest-side act: the probe ranks the registry's live
// opencl hosts (least-load by default), dials the winner, and verifies
// the host actually serves calls before reporting. Exit is non-zero when
// no live host is reachable.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ava"
	"ava/internal/cl"
	"ava/internal/fleet"
	"ava/internal/sched"
)

func main() {
	var (
		registry = flag.String("registry", "127.0.0.1:7400", "comma-separated fleet registry addresses (avaregd)")
		vm       = flag.Uint("vm", 1, "VM identity to place")
		name     = flag.String("name", "", "VM name (default: vm<id>)")
		policy   = flag.String("policy", "least-load", "placement policy: least-load or spread")
	)
	flag.Parse()
	if *name == "" {
		*name = fmt.Sprintf("vm%d", *vm)
	}

	var pol sched.Policy
	switch *policy {
	case "least-load":
		pol = sched.LeastLoad{}
	case "spread":
		pol = sched.NewSpreadByVMCount()
	default:
		log.Fatalf("avaplace: unknown policy %q (least-load, spread)", *policy)
	}

	// Any Locator flavor works here; several replicas quorum-merge.
	var loc fleet.Locator
	if addrs := strings.Split(*registry, ","); len(addrs) > 1 {
		loc = fleet.DialRegistries(addrs...)
	} else {
		loc = fleet.DialRegistry(*registry)
	}
	defer loc.(interface{ Close() }).Close()

	stack := ava.NewStack(cl.Descriptor(), nil,
		ava.WithPlacement(ava.PlacementConfig{
			Locator: loc,
			API:     "opencl",
			Policy:  pol,
		}))
	defer stack.Close()

	lib, err := stack.AttachVM(ava.VMConfig{ID: uint32(*vm), Name: *name})
	if err != nil {
		fmt.Fprintf(os.Stderr, "avaplace: attach: %v\n", err)
		os.Exit(1)
	}
	// Prove the placement serves, not just dials: one real call.
	if _, err := cl.NewRemote(lib).PlatformIDs(); err != nil {
		fmt.Fprintf(os.Stderr, "avaplace: probe call on %q failed: %v\n", stack.VMHost(uint32(*vm)), err)
		os.Exit(1)
	}
	for _, d := range stack.SchedDecisions() {
		fmt.Printf("decision %d: %s vm %d -> %s (policy %s, %s)\n",
			d.Seq, d.Kind, d.VM, d.To, d.Policy, d.Reason)
	}
	fmt.Printf("placed vm %d on %s\n", *vm, stack.VMHost(uint32(*vm)))
}

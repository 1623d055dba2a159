// Cluster-scheduling tests over a loopback fleet: admission-time placement
// spreads attachments, and the rebalancer live-migrates VMs off a hot host
// through the real guardian checkpoint/relocate path with zero lost or
// corrupted calls.
package ava_test

import (
	"fmt"
	"testing"
	"time"

	"ava"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/sched"
	"ava/internal/server"
)

const schedSpec = `
api "schedsim";
const OK = 0;
type st = int32_t { success(OK); };
st ping(uint32_t x, uint32_t *y) { parameter(y) { out; element; } }
`

// schedFleet is three API-server machines on loopback (internal/host, what
// avad runs) and the registry that lists them. The machines do not announce
// themselves: each test scripts the load the registry sees, so placement
// and rebalancing decisions are exact, while every dial, checkpoint and
// migration takes the production path over the wire.
type schedFleet struct {
	*fleet.Registry
	addrs map[string]string
}

func newSchedFleet(t *testing.T) *schedFleet {
	t.Helper()
	desc, err := ava.CompileSpec(schedSpec)
	if err != nil {
		t.Fatal(err)
	}
	f := &schedFleet{Registry: fleet.NewRegistry(time.Minute, nil), addrs: make(map[string]string)}
	for _, id := range []string{"host-a", "host-b", "host-c"} {
		// No Adapter: schedsim is stateless, a migration carries the record
		// log alone.
		sreg := server.NewRegistry(desc)
		sreg.MustRegister("ping", func(inv *server.Invocation) error {
			inv.SetOutUint(1, inv.Uint(0)*2+1)
			inv.SetStatus(0)
			return nil
		})
		h, err := host.Start(server.New(sreg), host.Config{Listen: "127.0.0.1:0", API: "schedsim"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Kill)
		f.addrs[id] = h.Addr()
	}
	return f
}

// announce lists machine id in the registry under the given load.
func (f *schedFleet) announce(id string, load int) {
	f.Announce(fleet.Member{ID: id, Addr: f.addrs[id], API: "schedsim", Load: load})
}

// newPlacedStack builds a guest-side stack placing its VMs on f.
func newPlacedStack(t *testing.T, f *schedFleet, policy ava.SchedPolicy, rc *ava.RebalanceConfig) *ava.Stack {
	t.Helper()
	desc, err := ava.CompileSpec(schedSpec)
	if err != nil {
		t.Fatal(err)
	}
	opts := []ava.Option{
		ava.WithPlacement(ava.PlacementConfig{Locator: f, API: "schedsim", Policy: policy}),
	}
	if rc != nil {
		opts = append(opts, ava.WithRebalance(*rc))
	}
	stack := ava.NewStack(desc, nil, opts...)
	t.Cleanup(stack.Close)
	return stack
}

func hostCounts(stack *ava.Stack) map[string]int {
	counts := make(map[string]int)
	for _, id := range stack.VMs() {
		if h := stack.VMHost(id); h != "" {
			counts[h]++
		}
	}
	return counts
}

func TestPlacementSpreadsAttachments(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSchedFleet(t)
	for _, id := range []string{"host-a", "host-b", "host-c"} {
		f.announce(id, 0)
	}
	stack := newPlacedStack(t, f, sched.NewSpreadByVMCount(), nil)

	for vm := uint32(1); vm <= 6; vm++ {
		lib, err := stack.AttachVM(ava.VMConfig{ID: vm, Name: fmt.Sprintf("vm%d", vm)})
		if err != nil {
			t.Fatal(err)
		}
		var y uint32
		if _, err := lib.Call("ping", vm, &y); err != nil {
			t.Fatal(err)
		}
		if y != vm*2+1 {
			t.Fatalf("vm %d: y = %d, want %d", vm, y, vm*2+1)
		}
	}
	counts := hostCounts(stack)
	for _, id := range []string{"host-a", "host-b", "host-c"} {
		if counts[id] != 2 {
			t.Fatalf("spread placement counts = %v, want 2 per host", counts)
		}
	}
	ds := stack.SchedDecisions()
	if len(ds) != 6 {
		t.Fatalf("decision log has %d entries, want 6: %+v", len(ds), ds)
	}
	for _, d := range ds {
		if d.Kind != "place" || d.Policy != "spread-by-vm-count" || d.To == "" {
			t.Fatalf("unexpected decision %+v", d)
		}
	}
}

// TestPlacementLeastLoadPicksLightest: the default policy lands on the
// registry's lightest member, deterministically.
func TestPlacementLeastLoadPicksLightest(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSchedFleet(t)
	f.announce("host-a", 4)
	f.announce("host-b", 1)
	f.announce("host-c", 2)
	stack := newPlacedStack(t, f, nil, nil)
	if _, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"}); err != nil {
		t.Fatal(err)
	}
	if h := stack.VMHost(1); h != "host-b" {
		t.Fatalf("least-load placed on %q, want host-b", h)
	}
	ds := stack.SchedDecisions()
	if len(ds) != 1 || ds[0].Kind != "place" || ds[0].Policy != "least-load" || ds[0].To != "host-b" {
		t.Fatalf("decision log: %+v", ds)
	}
}

// TestRebalanceUnderSkewedLoad is the end-to-end rebalance chaos case
// (fixed inputs, fully deterministic decisions): nine VMs pile onto one
// host under stale load announcements, the announcements catch up, and
// the manual-mode rebalancer migrates the fleet toward balance through
// the real guardian machinery — with every call before, during and after
// the moves returning correct bytes, no migration double-logged as a
// failover, and no flapping once balance is reached.
func TestRebalanceUnderSkewedLoad(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const vms = 9
	f := newSchedFleet(t)
	// Stale announcements: host-a looks free, its peers look slammed.
	f.announce("host-a", 0)
	f.announce("host-b", 50)
	f.announce("host-c", 50)

	rc := &ava.RebalanceConfig{
		Alpha:           1, // announcements in this test are exact, not noisy
		SkewRatio:       1.2,
		HysteresisTicks: 2,
		CooldownTicks:   1,
		WindowTicks:     4,
		MaxPerWindow:    2,
		BatchMax:        1,
		VMCooldownTicks: 1,
		// Interval 0: manual mode, the test drives Tick.
	}
	stack := newPlacedStack(t, f, nil, rc)

	libs := make(map[uint32]*ava.GuestLib)
	var x uint32
	callAll := func(phase string) {
		t.Helper()
		for vm, lib := range libs {
			x++
			var y uint32
			if _, err := lib.Call("ping", x, &y); err != nil {
				t.Fatalf("%s: vm %d call: %v", phase, vm, err)
			}
			if y != x*2+1 {
				t.Fatalf("%s: vm %d: y = %d, want %d (corrupted reply)", phase, vm, y, x*2+1)
			}
		}
	}
	for vm := uint32(1); vm <= vms; vm++ {
		lib, err := stack.AttachVM(ava.VMConfig{ID: vm, Name: fmt.Sprintf("vm%d", vm)})
		if err != nil {
			t.Fatal(err)
		}
		libs[vm] = lib
	}
	callAll("admission")
	if n := hostCounts(stack)["host-a"]; n != vms {
		t.Fatalf("stale announcements should pile everything on host-a, got %v", hostCounts(stack))
	}

	// Announcements catch up with reality: load = VMs actually served.
	announceTruth := func() {
		counts := hostCounts(stack)
		for _, id := range []string{"host-a", "host-b", "host-c"} {
			f.announce(id, counts[id])
		}
	}
	waitMoved := func(vm uint32, to string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for stack.VMHost(vm) != to {
			if time.Now().After(deadline) {
				t.Fatalf("vm %d never landed on %s (host %q)", vm, to, stack.VMHost(vm))
			}
			time.Sleep(time.Millisecond)
		}
	}

	reb := stack.Rebalancer()
	if reb == nil {
		t.Fatal("WithRebalance built no rebalancer")
	}
	for tick := 0; tick < 40; tick++ {
		announceTruth()
		seen := len(stack.SchedDecisions())
		reb.Tick()
		// Wait for each migration this tick started to land, so the next
		// announcement reflects it (migrations are asynchronous).
		for _, d := range stack.SchedDecisions()[seen:] {
			if d.Kind == "rebalance" {
				waitMoved(d.VM, d.To)
			}
		}
		callAll(fmt.Sprintf("tick %d", tick))
	}

	counts := hostCounts(stack)
	for _, id := range []string{"host-a", "host-b", "host-c"} {
		if counts[id] < 2 || counts[id] > 4 {
			t.Fatalf("host %s serves %d VMs after rebalancing, want ~3 (%v)", id, counts[id], counts)
		}
	}
	st := reb.Stats()
	if st.Migrations == 0 {
		t.Fatal("no migrations despite sustained skew")
	}
	for _, d := range stack.SchedDecisions() {
		if d.Kind == "failover" {
			t.Fatalf("rebalance migration double-logged as failover: %+v", d)
		}
	}

	// Balance holds: further ticks over truthful announcements move nothing.
	before := reb.Stats().Migrations
	for tick := 0; tick < 20; tick++ {
		announceTruth()
		reb.Tick()
	}
	if after := reb.Stats().Migrations; after != before {
		t.Fatalf("rebalancer flapped: %d extra migrations on a balanced fleet", after-before)
	}
	callAll("steady state")
}

// TestMigrateVMMovesHost: a manual migration relocates one VM to the
// named target with state intact.
func TestMigrateVMMovesHost(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSchedFleet(t)
	f.announce("host-a", 0)
	f.announce("host-b", 1)
	stack := newPlacedStack(t, f, nil, nil)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	var y uint32
	if _, err := lib.Call("ping", 10, &y); err != nil {
		t.Fatal(err)
	}
	if h := stack.VMHost(1); h != "host-a" {
		t.Fatalf("placed on %q, want host-a", h)
	}
	if err := stack.MigrateVM(1, "host-b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stack.VMHost(1) != "host-b" {
		if time.Now().After(deadline) {
			t.Fatalf("vm never landed on host-b (host %q)", stack.VMHost(1))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := lib.Call("ping", 11, &y); err != nil {
		t.Fatal(err)
	}
	if y != 23 {
		t.Fatalf("post-migration reply y = %d, want 23", y)
	}
	// Migrating an unplaced VM is an error, not a panic.
	if err := stack.MigrateVM(99, ""); err == nil {
		t.Fatal("migrating unknown VM succeeded")
	}
}

package main

import (
	"testing"

	"ava"
	"ava/internal/cl"
	"ava/internal/ctlplane"
	"ava/internal/devsim"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/server"
)

// POST /migrate?vm=N&target=host moves the VM to that host: the control
// endpoint's hook is Stack.MigrateVM, not a checkpoint and a cut link that
// let the dialer land the VM wherever it likes.
func TestCtlMigrateMovesVMToTarget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := fleet.NewRegistry(0, nil)
	for _, id := range []string{"host-a", "host-b"} {
		reg := server.NewRegistry(cl.Descriptor())
		cl.BindServer(reg, cl.NewSilo(cl.Config{
			Devices: []devsim.Config{{Name: "gpu", MemoryBytes: 64 << 20, ComputeUnits: 2}},
		}))
		h, err := host.Start(server.New(reg), host.Config{Listen: "127.0.0.1:0", API: "opencl", Locator: loc, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Kill)
	}
	stack := ava.NewStack(cl.Descriptor(), nil, ava.WithPlacement(ava.PlacementConfig{Locator: loc}))
	t.Cleanup(stack.Close)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	from := stack.VMHost(1)
	to := "host-b"
	if from == to {
		to = "host-a"
	}

	cs := ctlplane.New(ctlConfig("", func() *ava.Stack { return stack }))
	addr, err := cs.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	if err := ctlplane.NewClient(addr).Migrate(1, to); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU); err != nil {
		t.Fatal(err)
	}
	if at := stack.VMHost(1); at != to {
		t.Fatalf("POST /migrate to %s left the VM on %q (was on %s)", to, at, from)
	}
}

// Migration: live-migrate a guest's accelerator state between two API
// servers (§4.3). Two hosts — each an avad (internal/host) with its own
// GPU — announce to a fleet registry, and the guest's stack places its VM
// out of it. The application uploads data, binds kernel arguments and runs
// a launch on the host it was placed on; the hypervisor then moves the VM
// with Stack.MigrateVM: the failover guardian cuts a checkpoint of the
// device buffers, its dialer relocates to the other host, and the record
// log (the guardian's shadow log of tracked calls) is replayed there. The
// application keeps its guest library and its handles — it reads the
// pre-migration result and launches again, none the wiser.
//
// Run with: go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"time"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/server"
)

const n = 4096

// startHost is one machine: BindServer gives its registry the OpenCL
// handlers and the object-state adapter the guardian's checkpoint and
// restore go through.
func startHost(id string, loc fleet.Locator) *host.Server {
	reg := server.NewRegistry(cl.Descriptor())
	cl.BindServer(reg, cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "gpu", MemoryBytes: 256 << 20, ComputeUnits: 4}},
	}))
	h, err := host.Start(server.New(reg), host.Config{Listen: "127.0.0.1:0", API: "opencl", Locator: loc, ID: id})
	must(err)
	return h
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	loc := fleet.NewRegistry(0, nil)
	for _, id := range []string{"host-a", "host-b"} {
		defer startHost(id, loc).Shutdown()
	}

	// The hypervisor side: no local GPU, every VM placed out of the fleet.
	stack := ava.NewStack(cl.Descriptor(), nil,
		ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "opencl"}))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 42, Name: "migrating-vm"})
	must(err)
	c := cl.NewRemote(lib)

	ps, _ := c.PlatformIDs()
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, err := c.CreateContext(ds)
	must(err)
	q, err := c.CreateQueue(ctx, ds[0], 0)
	must(err)
	bufA, _ := c.CreateBuffer(ctx, 1, 4*n)
	bufB, _ := c.CreateBuffer(ctx, 1, 4*n)
	bufO, _ := c.CreateBuffer(ctx, 1, 4*n)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i], b[i] = float32(i), float32(100*i)
	}
	must(c.EnqueueWrite(q, bufA, true, 0, bytesconv.Float32Bytes(a)))
	must(c.EnqueueWrite(q, bufB, true, 0, bytesconv.Float32Bytes(b)))
	prog, _ := c.CreateProgram(ctx, "vector_add")
	must(c.BuildProgram(prog, ""))
	kern, _ := c.CreateKernel(prog, "vector_add")
	c.SetKernelArgBuffer(kern, 0, bufA)
	c.SetKernelArgBuffer(kern, 1, bufB)
	c.SetKernelArgBuffer(kern, 2, bufO)
	c.SetKernelArgScalar(kern, 3, cl.ArgU32(n))
	must(c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}))
	must(c.Finish(q))
	from := stack.VMHost(42)
	fmt.Printf("%s: application initialized, one kernel executed\n", from)

	// --- The hypervisor migrates the VM. ---
	to := "host-b"
	if from == to {
		to = "host-a"
	}
	start := time.Now()
	must(stack.MigrateVM(42, to))
	fmt.Printf("checkpoint cut and link to %s severed in %v\n", from, time.Since(start).Round(time.Microsecond))

	// --- The application resumes with its ORIGINAL library and handles. ---
	out := make([]byte, 4*n)
	must(c.EnqueueRead(q, bufO, true, 0, out))
	res := bytesconv.ToFloat32(out)
	gs := stack.Guardian(42).Stats()
	fmt.Printf("%s: replayed and restored %d bytes of buffers in %v; pre-migration result intact: out[1]=%v out[%d]=%v\n",
		stack.VMHost(42), gs.LastCkptFootprint, gs.LastRecoveryPause.Round(time.Microsecond), res[1], n-1, res[n-1])
	if at := stack.VMHost(42); at != to {
		log.Fatalf("VM serves from %q after migrating to %s", at, to)
	}

	// Keep computing: kernel arguments survived the replay.
	must(c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}))
	must(c.Finish(q))
	must(c.EnqueueRead(q, bufO, true, 0, out))
	for i, v := range bytesconv.ToFloat32(out) {
		if v != float32(101*i) {
			log.Fatalf("post-migration result wrong at %d: %v", i, v)
		}
	}
	fmt.Printf("%s: post-migration launch verified — application never noticed\n", to)
}

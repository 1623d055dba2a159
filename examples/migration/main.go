// Migration: live-migrate a guest's accelerator state between two API
// servers (§4.3). The application uploads data, binds kernel arguments and
// runs a launch on host A; the hypervisor captures the record/replay
// snapshot and synthesized buffer copies, moves them to host B (a fresh
// silo), and the application resumes with its original handles — reading
// the pre-migration result and launching again, none the wiser.
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
	"ava/internal/migrate"
	"ava/internal/server"
)

const n = 4096

// newStack is one host: BindServer gives the registry the OpenCL handlers and
// the object-state adapter that Capture and Restore below go through.
func newStack() *ava.Stack {
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "gpu", MemoryBytes: 256 << 20, ComputeUnits: 4}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	return ava.NewStack(desc, reg, ava.WithRecording())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	// --- Host A: the application sets up and computes. ---
	srcStack := newStack()
	lib1, err := srcStack.AttachVM(ava.VMConfig{ID: 42, Name: "migrating-vm"})
	must(err)
	c1 := cl.NewRemote(lib1)

	ps, _ := c1.PlatformIDs()
	ds, _ := c1.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	ctx, err := c1.CreateContext(ds)
	must(err)
	q, err := c1.CreateQueue(ctx, ds[0], 0)
	must(err)
	bufA, _ := c1.CreateBuffer(ctx, 1, 4*n)
	bufB, _ := c1.CreateBuffer(ctx, 1, 4*n)
	bufO, _ := c1.CreateBuffer(ctx, 1, 4*n)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i], b[i] = float32(i), float32(100*i)
	}
	must(c1.EnqueueWrite(q, bufA, true, 0, bytesconv.Float32Bytes(a)))
	must(c1.EnqueueWrite(q, bufB, true, 0, bytesconv.Float32Bytes(b)))
	prog, _ := c1.CreateProgram(ctx, "vector_add")
	must(c1.BuildProgram(prog, ""))
	kern, _ := c1.CreateKernel(prog, "vector_add")
	c1.SetKernelArgBuffer(kern, 0, bufA)
	c1.SetKernelArgBuffer(kern, 1, bufB)
	c1.SetKernelArgBuffer(kern, 2, bufO)
	c1.SetKernelArgScalar(kern, 3, cl.ArgU32(n))
	must(c1.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}))
	must(c1.Finish(q))
	fmt.Println("host A: application initialized, one kernel executed")

	// --- The hypervisor migrates the VM. ---
	srcCtx := srcStack.Server.Context(42, "migrating-vm")
	start := time.Now()
	snap, err := migrate.Capture(srcCtx)
	must(err)
	wire, err := snap.Encode()
	must(err)
	captureTime := time.Since(start)
	fmt.Printf("captured: %d recorded calls, %d stateful buffers, %d-byte snapshot (%v)\n",
		len(snap.Log), len(snap.Objects), len(wire), captureTime.Round(time.Microsecond))

	dstStack := newStack()
	defer dstStack.Close()
	dstCtx := dstStack.Server.Context(42, "migrating-vm")
	start = time.Now()
	snap2, err := migrate.Decode(wire)
	must(err)
	must(migrate.Restore(snap2, dstStack.Server, dstCtx))
	fmt.Printf("restored on host B in %v\n", time.Since(start).Round(time.Microsecond))
	srcStack.Close()

	// --- Host B: the application resumes with its ORIGINAL handles. ---
	lib2, err := dstStack.AttachVM(ava.VMConfig{ID: 42, Name: "migrating-vm"})
	must(err)
	c2 := cl.NewRemote(lib2)

	out := make([]byte, 4*n)
	must(c2.EnqueueRead(q, bufO, true, 0, out))
	res := bytesconv.ToFloat32(out)
	fmt.Printf("host B: pre-migration result intact: out[1]=%v out[%d]=%v\n",
		res[1], n-1, res[n-1])

	// Keep computing: kernel arguments survived the replay.
	must(c2.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}))
	must(c2.Finish(q))
	must(c2.EnqueueRead(q, bufO, true, 0, out))
	for i, v := range bytesconv.ToFloat32(out) {
		if v != float32(101*i) {
			log.Fatalf("post-migration result wrong at %d: %v", i, v)
		}
	}
	fmt.Println("host B: post-migration launch verified — application never noticed")
}

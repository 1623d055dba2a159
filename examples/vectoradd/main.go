// Vectoradd: the canonical OpenCL program running against the full AvA
// stack — 39 virtualized functions, hypervisor routing, and the simulated
// GPU — compared side by side with a native run on the same silo type.
//
// Run with: go run ./examples/vectoradd
package main

import (
	"fmt"
	"log"
	"time"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/server"
)

const n = 1 << 20

func newSilo() *cl.Silo {
	return cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "example-gpu", MemoryBytes: 512 << 20, ComputeUnits: 8}},
	})
}

func main() {
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(3 * i)
	}

	// Native run.
	t0 := time.Now()
	nativeSum, err := run(cl.NewNative(newSilo()), a, b)
	if err != nil {
		log.Fatal(err)
	}
	nativeTime := time.Since(t0)

	// Remoted run: guest library -> router -> API server -> silo.
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, newSilo())
	stack := ava.NewStack(desc, reg)
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vectoradd-vm"})
	if err != nil {
		log.Fatal(err)
	}
	client := cl.NewRemote(lib)
	t0 = time.Now()
	remoteSum, err := run(client, a, b)
	if err != nil {
		log.Fatal(err)
	}
	remoteTime := time.Since(t0)

	fmt.Printf("vector add, %d elements\n", n)
	fmt.Printf("  native : sum=%.6g  %v\n", nativeSum, nativeTime)
	fmt.Printf("  ava    : sum=%.6g  %v (%.2fx)\n", remoteSum, remoteTime,
		float64(remoteTime)/float64(nativeTime))
	if nativeSum != remoteSum {
		log.Fatal("results differ!")
	}
	st := lib.Stats()
	fmt.Printf("  guest  : %d calls (%d async), %d transport frames\n",
		st.Calls, st.AsyncCalls, st.Batches)
	rst, _ := stack.Router.Stats(1)
	fmt.Printf("  router : %d forwarded, %d denied, %d bytes, bandwidth estimate %d\n",
		rst.Forwarded, rst.Denied, rst.Bytes, rst.Resources["bandwidth"])
	fmt.Println("verified: the remoted sum equals the native sum")
}

func run(c cl.Client, a, b []float32) (float64, error) {
	ps, err := c.PlatformIDs()
	if err != nil {
		return 0, err
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return 0, err
	}
	name, _ := c.DeviceInfo(ds[0], cl.DeviceName)
	fmt.Printf("device: %s\n", name)

	ctx, err := c.CreateContext(ds)
	if err != nil {
		return 0, err
	}
	defer c.ReleaseContext(ctx)
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		return 0, err
	}
	defer c.ReleaseQueue(q)

	bufA, err := c.CreateBuffer(ctx, 1, 4*n)
	if err != nil {
		return 0, err
	}
	bufB, _ := c.CreateBuffer(ctx, 1, 4*n)
	bufO, _ := c.CreateBuffer(ctx, 1, 4*n)
	defer c.ReleaseBuffer(bufA)
	defer c.ReleaseBuffer(bufB)
	defer c.ReleaseBuffer(bufO)

	if err := c.EnqueueWrite(q, bufA, false, 0, bytesconv.Float32Bytes(a)); err != nil {
		return 0, err
	}
	if err := c.EnqueueWrite(q, bufB, false, 0, bytesconv.Float32Bytes(b)); err != nil {
		return 0, err
	}

	prog, err := c.CreateProgram(ctx, "vector_add")
	if err != nil {
		return 0, err
	}
	defer c.ReleaseProgram(prog)
	if err := c.BuildProgram(prog, ""); err != nil {
		return 0, err
	}
	kern, err := c.CreateKernel(prog, "vector_add")
	if err != nil {
		return 0, err
	}
	defer c.ReleaseKernel(kern)

	c.SetKernelArgBuffer(kern, 0, bufA)
	c.SetKernelArgBuffer(kern, 1, bufB)
	c.SetKernelArgBuffer(kern, 2, bufO)
	c.SetKernelArgScalar(kern, 3, cl.ArgU32(n))
	if err := c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}); err != nil {
		return 0, err
	}
	if err := c.Finish(q); err != nil {
		return 0, err
	}

	out := make([]byte, 4*n)
	if err := c.EnqueueRead(q, bufO, true, 0, out); err != nil {
		return 0, err
	}
	if err := c.DeferredError(); err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range bytesconv.ToFloat32(out) {
		sum += float64(v)
	}
	return sum, nil
}

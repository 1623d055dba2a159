// Disaggregated: the guest uses an accelerator that lives on another
// machine. The API server is an avad — internal/host behind a TCP listener,
// what cmd/avad runs — and the stack is told its address; the hypervisor
// router forwards the guest's calls over the socket: the pluggable-
// transport, resource-disaggregation configuration of §4.1.
//
// Run with: go run ./examples/disaggregated [-server host:port]
//
// Without -server the example starts its own avad on loopback; with it, it
// is a client of a running `avad -api opencl -listen host:port`.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/host"
	"ava/internal/server"
)

const n = 1 << 18

func main() {
	addr := flag.String("server", "", "address of a running avad serving opencl (default: start one on loopback)")
	flag.Parse()

	if *addr == "" {
		// "Remote machine": an API server with the GPU, listening on TCP.
		desc := cl.Descriptor()
		reg := server.NewRegistry(desc)
		cl.BindServer(reg, cl.NewSilo(cl.Config{
			Devices: []devsim.Config{{Name: "remote-gpu", MemoryBytes: 512 << 20, ComputeUnits: 8}},
		}))
		h, err := host.Start(server.New(reg), host.Config{Listen: "127.0.0.1:0", API: "opencl"})
		if err != nil {
			log.Fatal(err)
		}
		defer h.Shutdown()
		*addr = h.Addr()
	}

	// "Hypervisor host": the router interposes locally, then forwards over
	// the socket to the disaggregated accelerator. No silo on this side.
	stack := ava.NewStack(cl.Descriptor(), nil, ava.WithRemoteServer(*addr))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "remote-vm"})
	if err != nil {
		log.Fatal(err)
	}

	// "Guest VM": ordinary OpenCL, unaware the GPU is across the network.
	c := cl.NewRemote(lib)
	ps, err := c.PlatformIDs()
	if err != nil {
		log.Fatal(err)
	}
	ds, _ := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	name, _ := c.DeviceInfo(ds[0], cl.DeviceName)
	fmt.Printf("guest sees device %q over %s\n", name, *addr)

	ctx, err := c.CreateContext(ds)
	if err != nil {
		log.Fatal(err)
	}
	q, _ := c.CreateQueue(ctx, ds[0], 0)
	bufX, _ := c.CreateBuffer(ctx, 1, 4*n)
	bufY, _ := c.CreateBuffer(ctx, 1, 4*n)

	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i], y[i] = float32(i), 1
	}
	start := time.Now()
	if err := c.EnqueueWrite(q, bufX, false, 0, bytesconv.Float32Bytes(x)); err != nil {
		log.Fatal(err)
	}
	if err := c.EnqueueWrite(q, bufY, false, 0, bytesconv.Float32Bytes(y)); err != nil {
		log.Fatal(err)
	}
	prog, _ := c.CreateProgram(ctx, "saxpy")
	if err := c.BuildProgram(prog, ""); err != nil {
		log.Fatal(err)
	}
	kern, _ := c.CreateKernel(prog, "saxpy")
	c.SetKernelArgScalar(kern, 0, cl.ArgF32(2.0))
	c.SetKernelArgBuffer(kern, 1, bufX)
	c.SetKernelArgBuffer(kern, 2, bufY)
	c.SetKernelArgScalar(kern, 3, cl.ArgU32(n))
	if err := c.EnqueueNDRange(q, kern, []uint64{n}, []uint64{256}); err != nil {
		log.Fatal(err)
	}
	out := make([]byte, 4*n)
	if err := c.EnqueueRead(q, bufY, true, 0, out); err != nil {
		log.Fatal(err)
	}
	if err := c.DeferredError(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	res := bytesconv.ToFloat32(out)
	for i := range res {
		if res[i] != 2*float32(i)+1 {
			log.Fatalf("saxpy wrong at %d: %v", i, res[i])
		}
	}
	st, _ := stack.Router.Stats(1)
	fmt.Printf("saxpy over %d elements across TCP: %v, %d calls forwarded, %.1f MB moved\n",
		n, elapsed.Round(time.Millisecond), st.Forwarded, float64(st.Bytes)/(1<<20))
	fmt.Println("result verified: y = 2x + 1")
}

// Multitenant: three guest VMs share one simulated GPU through the
// hypervisor router — the consolidation the paper argues pass-through
// cannot provide (§1). A fair-share scheduler arbitrates device time at
// call granularity, one VM is given double weight, and a third is
// rate-limited; per-VM router statistics show the policies acting.
//
// Run with: go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/hv"
	"ava/internal/rodinia"
	"ava/internal/server"
)

func main() {
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "shared-gpu", MemoryBytes: 1 << 30, ComputeUnits: 4}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)

	sched := hv.NewFairScheduler(5 * time.Millisecond)
	stack := ava.NewStack(desc, reg, ava.WithScheduler(sched))
	defer stack.Close()

	vms := []ava.VMConfig{
		{ID: 1, Name: "tenant-gold", Weight: 2},
		{ID: 2, Name: "tenant-std", Weight: 1},
		{ID: 3, Name: "tenant-capped", Weight: 1, CallsPerSec: 5000, CallBurst: 64},
	}
	w, _ := rodinia.ByName("pathfinder")

	// The reference result: the same workload on a silo of its own, native.
	want, err := w.Run(cl.NewNative(cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "reference-gpu", MemoryBytes: 1 << 30, ComputeUnits: 4}},
	})), 1)
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	times := make([]time.Duration, len(vms))
	sums := make([]float64, len(vms))
	errs := make([]error, len(vms))
	for i, cfg := range vms {
		lib, err := stack.AttachVM(cfg)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			sums[i], errs[i] = w.Run(cl.NewRemote(lib), 1)
			times[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("%s: %v", vms[i].Name, err)
		}
	}

	fmt.Println("three tenants ran the pathfinder workload concurrently on one GPU:")
	fmt.Printf("%-15s %-10s %-10s %-10s %-12s %-12s\n",
		"tenant", "weight", "runtime", "forwarded", "stall", "device-busy")
	for i, cfg := range vms {
		st, err := stack.Router.Stats(cfg.ID)
		if err != nil {
			log.Fatal(err)
		}
		busy := silo.GetPlatformIDs()[0]
		_ = busy
		fmt.Printf("%-15s %-10d %-10v %-10d %-12v %-12v\n",
			cfg.Name, max(cfg.Weight, 1), times[i].Round(time.Millisecond),
			st.Forwarded, st.Stall.Round(time.Millisecond),
			deviceBusy(silo, cfg.Name))
	}
	fmt.Println("\nthe capped tenant accumulates stall from its token bucket;")
	fmt.Println("the fair scheduler keeps device-time shares proportional to weight.")
	for i, sum := range sums {
		if sum != want {
			log.Fatalf("%s computed %v, the native run %v", vms[i].Name, sum, want)
		}
	}
	fmt.Println("verified: every tenant's result equals the native run's")
}

// deviceBusy reads the per-client kernel-time accounting off the device.
func deviceBusy(silo *cl.Silo, client string) time.Duration {
	ds, _ := silo.GetDeviceIDs(silo.GetPlatformIDs()[0], cl.DeviceTypeGPU)
	return ds[0].Sim().BusyTime(client)
}

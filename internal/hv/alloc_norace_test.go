//go:build !race

package hv

import (
	"ava/internal/leaktest"
	"testing"
	"time"

	"ava/internal/marshal"
)

// Alloc budget for the router: policing an admitted call — decode into the
// uplink's scratch record, every verification, quota/shed/bucket/scheduler
// checks, the header patch and the VM's counters — touches the heap zero
// times, whether or not the function carries resource annotations and
// whether the policy is FIFO or the full serving configuration. (Compiled
// out under -race, whose instrumentation allocates; `make allocs` runs it.)
func TestPoliceAdmittedCallAllocatesNothing(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := hvDesc()
	for _, cfg := range admitConfigs() {
		r, vm := cfg.build(desc)
		if err := r.RegisterVM(vm); err != nil {
			t.Fatal(err)
		}
		st, _ := r.vm(vm.ID)
		for _, frame := range [][]byte{
			encCall(desc, 1, "ping", 0, marshal.Uint(1)),
			encCall(desc, 2, "launch", marshal.FlagAsync, marshal.Uint(1024), marshal.Uint(64)),
		} {
			var sc uplinkScratch
			admit := func() {
				now := r.clk.Now()
				if keep, deny := r.police(vm.ID, st, nil, frame, &now, &sc); !keep || deny != nil {
					t.Fatalf("%s: call not admitted: %+v", cfg.name, deny)
				}
			}
			admit() // sizes the scratch record and the stats map
			if n := testing.AllocsPerRun(1000, admit); n != 0 {
				t.Errorf("%s: police allocates %v times per admitted call, want 0", cfg.name, n)
			}
		}
		if s, _ := r.Stats(vm.ID); s.Denied != 0 || s.Stall > time.Second {
			t.Fatalf("%s: policy bound during the test: %+v", cfg.name, s)
		}
	}
}

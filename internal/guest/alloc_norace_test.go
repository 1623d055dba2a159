//go:build !race

package guest

import (
	"ava/internal/leaktest"
	"testing"

	"ava/internal/cava"
	"ava/internal/guest/guesttest"
	"ava/internal/marshal"
)

// Alloc budgets for the guest library, over an echo endpoint that itself
// allocates nothing. (Compiled out under -race; `make allocs` runs it.)
//
// Through the typed entry the generated stubs use, both are 0:
//
//   - an asynchronously forwarded, batched call — the argument vector stays on
//     the stub's stack, the Call header on the engine's, and the batch frame is
//     drawn at the size the last one needed;
//   - a synchronous round trip — pooled waiter, reply decoded into it, frames
//     from the pool.
//
// The by-name front (Call) is held to one more for the asynchronous call: it
// boxes its non-constant scalars into `...any` before the engine is entered,
// which is exactly what the stubs exist to avoid.
func TestLibCallAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(testSpec)
	lib := New(desc, guesttest.NewEcho())
	defer lib.Close()
	scale, _ := desc.Lookup("scale")
	closeDevice, _ := desc.Lookup("closeDevice")
	dev := marshal.Handle(1)
	var opts CallOptions

	async := func() {
		args := [2]marshal.Value{marshal.HandleVal(dev), marshal.Float(2)}
		if _, err := lib.Invoke(scale, &opts, args[:]); err != nil {
			t.Fatal(err)
		}
	}
	sync := func() {
		args := [1]marshal.Value{marshal.HandleVal(dev)}
		if _, err := lib.Invoke(closeDevice, &opts, args[:]); err != nil {
			t.Fatal(err)
		}
	}
	byName := func() {
		if _, err := lib.Call("scale", dev, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ { // a few full batches: frame hint, meta slices, pools
		async()
	}
	sync()
	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"async batched call", async, 0},
		{"sync round trip", sync, 0},
		{"async batched call by name", byName, 1},
	} {
		if n := testing.AllocsPerRun(2000, tc.run); n > tc.budget {
			t.Errorf("%s allocates %v times, budget %v", tc.name, n, tc.budget)
		} else {
			t.Logf("%s: %v allocs (budget %v)", tc.name, n, tc.budget)
		}
	}
}

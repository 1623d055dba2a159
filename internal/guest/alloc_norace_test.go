//go:build !race

package guest

import (
	"ava/internal/leaktest"
	"testing"

	"ava/internal/cava"
	"ava/internal/marshal"
)

// Alloc budgets for the guest library, over an echo endpoint that itself
// allocates nothing. (Compiled out under -race; `make allocs` runs it.)
//
//   - an asynchronously forwarded, batched call: 0 — the argument vector
//     and the Call header stay on the stack and the batch frame is drawn at
//     the size the last one needed. (A binding that passes non-constant
//     scalars pays for boxing them into `...any`; that is ROADMAP's
//     binding-side item, not the library's.) Budget 1 leaves room for that.
//   - a synchronous round trip: 0 — pooled waiter, reply decoded into it,
//     frames from the pool.
//
// The parent of this change spent 19 on the five-call benchmark op
// (guest.allocs_per_op), about 3 per async and 7 per sync call.
func TestLibCallAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(testSpec)
	lib := New(desc, newEchoEndpoint())
	defer lib.Close()
	dev := marshal.Handle(1)

	async := func() {
		if _, err := lib.Call("scale", dev, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	sync := func() {
		if _, err := lib.Call("closeDevice", dev); err != nil {
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
		{"async batched call", async, 1},
		{"sync round trip", sync, 0},
	} {
		if n := testing.AllocsPerRun(2000, tc.run); n > tc.budget {
			t.Errorf("%s allocates %v times, budget %v", tc.name, n, tc.budget)
		} else {
			t.Logf("%s: %v allocs (budget %v)", tc.name, n, tc.budget)
		}
	}
}

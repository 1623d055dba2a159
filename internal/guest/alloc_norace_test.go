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
//
// With the failover window armed both stay at 0: a retained call's record
// goes into the window by value and its body into a pooled chunk, and the
// checkpoint notices fed every checkpointEvery calls trim the window, so
// the chunks cycle through framebuf while the budget is measured.
func TestLibCallAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(testSpec)
	scale, _ := desc.Lookup("scale")
	closeDevice, _ := desc.Lookup("closeDevice")
	dev := marshal.Handle(1)
	var opts CallOptions

	type rig struct {
		lib   *Lib
		async func()
		sync  func()
	}
	newRig := func(echo *guesttest.Echo, o ...Option) rig {
		lib := New(desc, echo, o...)
		t.Cleanup(func() { lib.Close() })
		return rig{
			lib: lib,
			async: func() {
				args := [2]marshal.Value{marshal.HandleVal(dev), marshal.Float(2)}
				if _, err := lib.Invoke(scale, &opts, args[:]); err != nil {
					t.Fatal(err)
				}
			},
			sync: func() {
				args := [1]marshal.Value{marshal.HandleVal(dev)}
				if _, err := lib.Invoke(closeDevice, &opts, args[:]); err != nil {
					t.Fatal(err)
				}
			},
		}
	}
	plain := newRig(guesttest.NewEcho())
	byName := func() {
		if _, err := plain.lib.Call("scale", dev, 2.0); err != nil {
			t.Fatal(err)
		}
	}

	// guarded runs call on the failover rig and, every checkpointEvery
	// calls, injects a checkpoint notice covering every call made so far.
	// The notices are encoded before the measurement starts: a guardian's
	// allocations are not the library's.
	const runs, checkpointEvery = 2000, 64
	foEcho := guesttest.NewEcho()
	fo := newRig(foEcho, WithFailover(FailoverPolicy{Retain: 512}))
	var notices [][]byte
	calls := 0
	guarded := func(call func()) func() {
		return func() {
			call()
			if calls++; calls%checkpointEvery == 0 && len(notices) > 0 {
				foEcho.Inject(notices[0])
				notices = notices[1:]
			}
		}
	}
	armNotices := func() {
		fo.lib.mu.Lock()
		seq := fo.lib.seq
		fo.lib.mu.Unlock()
		notices, calls = notices[:0], 0
		for w := seq + checkpointEvery; w <= seq+runs+1; w += checkpointEvery {
			notices = append(notices, marshal.EncodeControl(marshal.CtrlCheckpoint, 0, w))
		}
	}

	for i := 0; i < 300; i++ { // a few full batches: frame hint, meta slices, pools
		plain.async()
	}
	plain.sync()
	for _, call := range []func(){fo.async, fo.sync} {
		// Through a dozen checkpoints: the window's record array and
		// chunk list reach the size they keep.
		armNotices()
		for i := 0; i < 1000; i++ {
			guarded(call)()
		}
	}
	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"async batched call", plain.async, 0},
		{"sync round trip", plain.sync, 0},
		{"async batched call by name", byName, 1},
		{"retained async call", guarded(fo.async), 0},
		{"retained sync round trip", guarded(fo.sync), 0},
	} {
		armNotices()
		if n := testing.AllocsPerRun(runs, tc.run); n > tc.budget {
			t.Errorf("%s allocates %v times, budget %v", tc.name, n, tc.budget)
		} else {
			t.Logf("%s: %v allocs (budget %v)", tc.name, n, tc.budget)
		}
	}
}

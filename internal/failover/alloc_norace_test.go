//go:build !race

package failover

import (
	"runtime"
	"testing"

	"ava/internal/leaktest"
)

// One delta checkpoint of a 64 KiB buffer with a 4 KiB dirty range, taken
// over an in-process link as every checkpoint is. Besides the composed
// checkpoint state — a fresh 64 KiB, since the previous checkpoint stays
// the replay base until this one commits — it may allocate at most twice
// the dirty bytes: the silo's copy of the range, and small records. The
// range's other trips, into the control reply, through the link and out
// of it, go through pooled frames and are decoded in place; copying it
// into an intermediate encode buffer, out of the reply, or again when the
// reply is handed to the waiter each costs another 4 KiB.
func TestCheckpointAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const size, dirty, n = 64 << 10, 4 << 10, 64
	obj := &rangeObj{data: make([]byte, size)}
	g := guardRangeObject(t, obj, nil)

	page := make([]byte, dirty)
	step := func(i int) {
		for j := range page {
			page[j] = byte(i + j)
		}
		obj.write((i*dirty)%size, page)
		if err := g.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // the first is full; then the pools fill
		step(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	if st := g.Stats(); st.DeltaCheckpoints < n || st.LastCkptBytes != dirty {
		t.Fatalf("stats %+v: want %d delta checkpoints shipping %d bytes each", st, n, dirty)
	}
	perCkpt := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f B (%.1f allocations) per delta checkpoint", perCkpt, allocs)
	if budget := float64(size + 2*dirty); perCkpt > budget {
		t.Fatalf("a delta checkpoint allocates %.0f B: over the composed state plus twice the dirty bytes (%.0f B)", perCkpt, budget)
	}
}

//go:build !race

package failover

import (
	"runtime"
	"testing"

	"ava/internal/cava"
	"ava/internal/leaktest"
	"ava/internal/marshal"
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

// Admitting a tracked modify call — the guardian's per-call work on the way
// south, `fill` with a 16-byte buffer — allocates nothing: the recorded
// call, its argument vector and the buffer's copy are cut from the shadow
// log's slabs, and a slab's own allocation, once per hundreds of calls,
// rounds away. The log is pruned after warming up, so its entry list and
// index are at the size they keep and what is measured is the record.
func TestAdmitAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, desc := logServer()
	g, _ := guardServer(t, srv, srv.Context(1, "vm"), desc, Config{})
	const runs = 2000
	obj := marshal.Handle(7)
	payload := []byte("sixteen bytes ok")
	args := [3]marshal.Value{marshal.HandleVal(obj), marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload)}
	g.mu.Lock()
	call := marshal.Call{Func: logFunc(desc, "fill"), Flags: marshal.FlagAsync, Epoch: g.epoch, Args: args[:]}
	gen := g.linkGen
	g.mu.Unlock()
	admit := func() {
		call.Seq++
		if forward, _ := g.admit(&call, gen); !forward {
			t.Fatalf("call %d not admitted", call.Seq)
		}
	}
	for i := 0; i < 2*runs; i++ {
		admit()
	}
	g.mu.Lock()
	g.log.prune(obj)
	g.mu.Unlock()
	n := testing.AllocsPerRun(runs, admit)
	t.Logf("admitting a tracked call: %v allocs", n)
	if n > 0 {
		t.Fatalf("admitting a tracked call allocates %v times, budget 0", n)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if got := len(g.log.entries); got != runs+1 {
		t.Fatalf("shadow log holds %d entries, want %d", got, runs+1)
	}
}

// A checkpoint commit's compaction, once the log has reached its working
// size, allocates nothing — and neither does recording the calls between
// two commits: each interval records 600 keyed modifies (four slots, an
// 8-byte value each), the commit drops all but the newest per slot, and
// the move cuts the survivors from the chunks the previous commit recycled
// and recycles the ones they were cut from.
func TestCompactAllocBudget(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(logSpec)
	l := newShadowLog(desc, nil)
	payload := []byte("eight by")
	args := [4]marshal.Value{marshal.HandleVal(7), marshal.Uint(0), marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload)}
	call := marshal.Call{Func: logFunc(desc, "tune"), Flags: marshal.FlagAsync, Args: args[:]}
	const slots = 4
	interval := func() {
		for i := 0; i < 600; i++ {
			call.Seq++
			args[1] = marshal.Uint(call.Seq % slots)
			l.record(&call)
		}
		l.compact(call.Seq)
	}
	for i := 0; i < 4; i++ { // the pools, entry list and scratch reach their working size
		interval()
	}
	n := testing.AllocsPerRun(50, interval)
	t.Logf("600 records and a compacting commit: %v allocs", n)
	if n > 0 {
		t.Fatalf("an interval of records and a compacting commit allocates %v times, budget 0", n)
	}
	if got := len(l.entries); got != slots {
		t.Fatalf("shadow log holds %d entries after compaction, want %d", got, slots)
	}
}

package framebuf

import (
	"runtime"
	"sync"
	"testing"
)

func TestGetReturnsRequestedCapacity(t *testing.T) {
	b := Get(100)
	if len(b) != 0 {
		t.Fatalf("Get returned length %d, want 0", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("Get returned capacity %d, want >= 100", cap(b))
	}
}

func TestGetLen(t *testing.T) {
	b := GetLen(64)
	if len(b) != 64 {
		t.Fatalf("GetLen returned length %d, want 64", len(b))
	}
}

func TestPutGetRecycles(t *testing.T) {
	// The pool is best-effort (sync.Pool may drop under GC pressure), so
	// the assertion is only that a recycled buffer round-trips usably.
	b := Get(256)
	b = append(b, 1, 2, 3)
	Put(b)
	c := Get(16)
	c = append(c, 9)
	if c[0] != 9 {
		t.Fatalf("recycled buffer content = %d, want 9", c[0])
	}
}

func TestPutDropsOversized(t *testing.T) {
	Put(make([]byte, maxPooled+1)) // must not panic or pin
	Put(nil)
	b := Get(8)
	if cap(b) < 8 {
		t.Fatalf("Get after oversized Put returned capacity %d", cap(b))
	}
}

func BenchmarkGetPut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buf := Get(512)
		Put(buf[:cap(buf)])
	}
}

// TestPutCapsPooledEntrySize is the regression test for the pool's
// entry-size cap: an oversized Put must never make it into the pool, so
// no later Get can observe a buffer above maxPooled — one huge DMA frame
// must not stay pinned for the process lifetime. sync.Pool may drop
// entries at will, so the assertion is one-directional: Get may return
// smaller, never bigger.
func TestPutCapsPooledEntrySize(t *testing.T) {
	big := make([]byte, 0, maxPooled+1)
	for i := 0; i < 256; i++ {
		Put(big)
		if b := Get(1); cap(b) > maxPooled {
			t.Fatalf("Get returned pooled capacity %d > maxPooled %d after oversized Put", cap(b), maxPooled)
		}
	}
	// The boundary value is still poolable: exactly maxPooled is served
	// usable (recycled or fresh — sync.Pool does not promise which).
	Put(make([]byte, 0, maxPooled))
	if b := Get(maxPooled); cap(b) < maxPooled {
		t.Fatalf("Get(maxPooled) returned capacity %d", cap(b))
	}
	// Degenerate Puts are dropped without poisoning later Gets.
	Put(nil)
	Put(make([]byte, 0))
	if b := Get(32); len(b) != 0 || cap(b) < 32 {
		t.Fatalf("Get(32) after degenerate Puts: len %d cap %d", len(b), cap(b))
	}
}

// TestClassesBracketEverySize pins the class arithmetic: a Get's class is
// large enough for the request and at most a quarter larger, and a buffer
// allocated for a class is filed back under that same class.
func TestClassesBracketEverySize(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 80, 81, 127, 128, 129, 4095, 4096, 4097,
		256<<10 - 1, 256 << 10, 256<<10 + 70, maxPooled - 1, maxPooled} {
		c := classCeil(n)
		size := classSize(c)
		if size < n || (n > 64 && size > n+n/4) {
			t.Errorf("classCeil(%d) = class %d of %d bytes", n, c, size)
		}
		if got := classFloor(size); got != c {
			t.Errorf("a %d-byte buffer allocated for class %d is filed under class %d", size, c, got)
		}
		if c >= numClasses {
			t.Errorf("classCeil(%d) = %d, beyond the %d classes", n, c, numClasses)
		}
	}
	if b := Get(256<<10 + 70); cap(b) != 320<<10 {
		t.Errorf("Get(256 KiB + 70) capacity = %d, want the 320 KiB class", cap(b))
	}
	if b := Get(maxPooled + 1); cap(b) != maxPooled+1 {
		t.Errorf("oversized Get capacity = %d, want exact", cap(b))
	}
}

// drainLarge empties the payload-class free lists, so a test starts from (and
// leaves behind) no idle buffers whatever ran before it.
func drainLarge() {
	large.mu.Lock()
	defer large.mu.Unlock()
	for i := range large.free {
		large.free[i] = nil
	}
	large.idle = 0
}

// TestLargeBufferSurvivesGC is what the payload classes exist for: a buffer
// needed once per several GC cycles is still there. In a sync.Pool it is gone
// after two.
func TestLargeBufferSurvivesGC(t *testing.T) {
	drainLarge()
	defer drainLarge()
	for _, n := range []int{largeSize, 256<<10 + 70, 2100 << 10, maxPooled} {
		b := GetLen(n)
		Put(b)
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		if c := GetLen(n); &c[0] != &b[0] {
			t.Errorf("Get(%d) after Put and three GC cycles returned a fresh buffer", n)
		}
		if c := GetLen(n); &c[0] == &b[0] {
			t.Errorf("Get(%d) returned a buffer that was already handed out", n)
		}
	}
	if large.idle != 0 {
		t.Errorf("idle = %d bytes with every buffer handed out", large.idle)
	}
}

// TestIdleBudgetBoundsRetainedBytes fills the free lists past the budget:
// what is retained stays within it, a Put over it is dropped to the GC,
// and Gets are served all the same. Capacities above the largest class are
// never retained, budget or no budget.
func TestIdleBudgetBoundsRetainedBytes(t *testing.T) {
	drainLarge()
	defer drainLarge()
	Put(make([]byte, 0, maxPooled+1))
	if large.idle != 0 {
		t.Fatalf("a %d-byte buffer, above the largest class, was retained (idle = %d)", maxPooled+1, large.idle)
	}
	const size = 1 << 20
	bufs := make([][]byte, idleBudget/size+4)
	for i := range bufs {
		bufs[i] = Get(size)
	}
	for i, b := range bufs {
		Put(b)
		if large.idle > idleBudget {
			t.Fatalf("after %d Puts of %d bytes the free lists hold %d idle bytes, budget %d", i+1, size, large.idle, idleBudget)
		}
	}
	if large.idle != idleBudget {
		t.Errorf("idle = %d after filling past the budget, want the whole budget of %d in use", large.idle, idleBudget)
	}
	// A full pool drops a Put of any payload class, not only this one.
	Put(make([]byte, 0, largeSize))
	if large.idle > idleBudget {
		t.Errorf("idle = %d, over the budget of %d", large.idle, idleBudget)
	}
	for i := range bufs {
		if b := Get(size); cap(b) < size {
			t.Fatalf("Get %d of a drained-then-empty class returned capacity %d", i, cap(b))
		}
	}
	if large.idle != 0 {
		t.Errorf("idle = %d after drawing every retained buffer back out", large.idle)
	}
}

// TestConcurrentGetPutNeverSharesABuffer hammers one payload class and one
// small class from several goroutines; each holder stamps its buffer, yields,
// and checks the stamp before giving the buffer back. Two holders of one
// buffer would overwrite each other's stamp (and trip the race detector).
func TestConcurrentGetPutNeverSharesABuffer(t *testing.T) {
	drainLarge()
	defer drainLarge()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 300
				if i%2 == 0 {
					n = 64 << 10
				}
				b := GetLen(n)
				b[0], b[n-1] = id, id
				runtime.Gosched()
				if b[0] != id || b[n-1] != id {
					t.Errorf("goroutine %d: buffer of %d bytes was written by another holder", id, n)
					return
				}
				Put(b)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}

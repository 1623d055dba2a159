package framebuf

import "testing"

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

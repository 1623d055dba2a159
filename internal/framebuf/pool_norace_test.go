//go:build !race

package framebuf

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPutTwiceGetTwiceBothHit pins the holder bookkeeping: two pooled
// buffers must both come back. With full and empty holders in one
// sync.Pool the second Put drew the first Put's (full) holder and
// overwrote its buffer, so one of the two Gets missed. One P and no GC make
// sync.Pool deterministic for the duration; under -race sync.Pool drops a
// quarter of all Puts on purpose, hence the build tag.
func TestPutTwiceGetTwiceBothHit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 300
	for full[classCeil(n)].Get() != nil { // start from an empty class
	}
	a, b := Get(n)[:1], Get(n)[:1]
	Put(a)
	Put(b)
	x, y := Get(n)[:1], Get(n)[:1]
	hit := func(p []byte) bool { return &p[0] == &a[0] || &p[0] == &b[0] }
	if !hit(x) || !hit(y) || &x[0] == &y[0] {
		t.Fatalf("Put(a), Put(b), Get, Get: hits %v %v, distinct %v; want both pooled buffers back",
			hit(x), hit(y), &x[0] != &y[0])
	}
	if c := Get(n)[:1]; hit(c) {
		t.Fatal("third Get returned a buffer that was already handed out")
	}
}

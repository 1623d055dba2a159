// Package framebuf pools the buffers of the remoting data path: call and
// reply frames, and the payload-sized space around them.
//
// Every forwarded call needs at least two frames — the batch frame carrying
// the call and the reply frame carrying its results — and a call that moves
// data needs space the size of the data on top: the out buffer a handler
// fills, a batch frame regrown around a large write. Allocated fresh, those
// dominate the garbage produced per call, and on a bulk transfer the time.
// The pool recycles them across the layers that can prove exclusive
// ownership of a buffer:
//
//   - the guest library recycles its batch frames after a copying
//     transport has sent them, and reply frames after scattering outputs;
//     a batch frame that a call outgrows is exchanged for a larger pooled
//     one, never regrown by append,
//   - the API server recycles received batch frames once every call in
//     the batch has executed (reference-counted by the dispatch workers),
//     reply frames after a copying transport has sent them, and the out
//     buffers it lends to handlers (Invocation.Bytes) when the call's slot
//     is released, after the reply has been encoded out of them,
//   - the router recycles a frame it forwarded when the frame arrived
//     owned and the onward Send copied it out (transport.FrameOwnership
//     says both),
//   - the ring and TCP transports draw their per-frame receive buffers
//     from the pool instead of allocating fresh.
//
// Ownership is the entire contract: Put hands the buffer to the next Get,
// so a caller must not retain any alias into a buffer it has Put. A layer
// that cannot prove ownership of a frame simply never Puts it — a missed
// Put falls back to the garbage collector, never to corruption. A Get
// promises capacity, not contents: the bytes may be another VM's, and a
// caller that exposes them before overwriting them clears them first.
package framebuf

import (
	"math/bits"
	"sync"
)

// Buffers are pooled by capacity class: four classes per power of two from
// 64 bytes up to maxPooled (64, 80, 96, 112, 128, 160, ...). A Get draws
// only from the class that guarantees its capacity, and allocates at the
// class size when the class is empty, so buffers of nearly equal size (a
// 256 KiB payload in a call frame and in its reply frame) are
// interchangeable, a small frame never walks off with a large buffer, and a
// large frame never draws — and then has to discard — a small one. The
// rounding costs at most a quarter of the requested size.
//
// Two pools sit under the classes, chosen by size alone.
//
// Below largeSize a buffer is "calls": there are many per second, each is
// cheap to remake, and a per-P sync.Pool hands them out without a lock.
//
// From largeSize up a buffer is "payload" — the line marshal.SegmentThreshold
// and the guest's frame hint already draw — and sync.Pool is the wrong tool:
// it forgets whatever is not reused within two GC cycles, and payload
// traffic is exactly what drives the collector. One pass over the paper's
// Figure 5 programs runs about five cycles on the host program's own
// garbage, so a 2 MiB frame needed once per program per pass was never
// there, and every miss is a fresh allocation, its zeroing, and a step
// towards the next cycle that empties the small classes too. These classes
// are LIFO free lists that a collection does not touch, bounded by one
// process-wide budget of idle bytes.
//
// The constants are set by measured traffic (EXPERIMENTS.md, "Recycled
// payload buffers"). Classes run to 4 MiB: every frame of the repository
// benchmark fits but one, a 4.3 MB batch of two backprop writes once per
// Figure 5 pass, and anything larger stays exact-size and unpooled, lest one
// huge DMA call pin its buffer for the life of the process. A run of the
// Figure 5 workload, the heaviest, ends with 44 buffers idle, 16.9 MB (bulk
// 5 and 1.3 MB, serve 24 and 2.1 MB, calls none), so a 32 MiB budget is
// twice what any of them holds. Idle buffers are live heap: the process's
// peak RSS can rise by about twice what the lists hold, the collector's own
// headroom on top.
const (
	minClassBits = 6 // 64 bytes
	maxBits      = 22
	maxPooled    = 1 << maxBits // 4 MiB
	numClasses   = (maxBits-minClassBits)*4 + 1

	largeBits  = 14
	largeSize  = 1 << largeBits // 16 KiB, the first free-list class
	largeClass = (largeBits - minClassBits) * 4
	idleBudget = 32 << 20 // bytes the free lists may hold idle, all classes together
)

// classFloor returns the largest class whose size is at most c (c >= 64).
func classFloor(c int) int {
	e := bits.Len(uint(c)) - 1
	return (e-minClassBits)*4 + (c>>(e-2))&3
}

func classSize(i int) int { return (4 + i%4) << (minClassBits + i/4 - 2) }

// classCeil returns the smallest class whose size is at least n.
func classCeil(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	i := classFloor(n)
	if classSize(i) < n {
		i++
	}
	return i
}

// Small buffers travel through sync.Pool inside *[]byte holders (a bare
// slice would be boxed, allocating on every Put). Full holders live in their
// class's pool and empty ones in a pool of their own: with one pool for
// both, a Put could draw a holder that still carried a buffer and overwrite
// it, and a Get could draw an empty holder and allocate while full ones sat
// beside it.
var (
	full  [largeClass]sync.Pool // holders carrying a buffer, by class
	empty sync.Pool             // holders carrying none, awaiting the next Put
)

// large holds the free lists of the payload classes. One lock serves them
// all: it is held for a slice push or pop, and every buffer that passes
// through it is about to carry at least largeSize bytes of copying.
var large struct {
	mu   sync.Mutex
	idle int                               // summed capacity of every listed buffer
	free [numClasses - largeClass][][]byte // LIFO per class: the warmest buffer is reused first
}

// Get returns a zero-length buffer with capacity at least n. The contents
// beyond length 0 are unspecified.
func Get(n int) []byte {
	if n > maxPooled {
		return make([]byte, 0, n) // never pooled: sized exactly
	}
	class := classCeil(n)
	if class >= largeClass {
		return getLarge(class)
	}
	p, _ := full[class].Get().(*[]byte)
	if p == nil {
		return make([]byte, 0, classSize(class))
	}
	b := *p
	*p = nil
	empty.Put(p)
	return b[:0]
}

func getLarge(class int) []byte {
	large.mu.Lock()
	list := &large.free[class-largeClass]
	if n := len(*list); n > 0 {
		b := (*list)[n-1]
		(*list)[n-1] = nil
		*list = (*list)[:n-1]
		large.idle -= cap(b)
		large.mu.Unlock()
		return b[:0]
	}
	large.mu.Unlock()
	return make([]byte, 0, classSize(class))
}

// GetLen returns a length-n buffer with unspecified contents, for receive
// paths that fill it completely.
func GetLen(n int) []byte {
	b := Get(n)
	return b[:n]
}

// Put recycles b for a future Get. The caller must own b exclusively and
// must not touch it (or anything aliasing it) afterwards. Nil, tiny and
// oversized buffers are dropped, and so is a payload-class buffer that
// would take the free lists over their idle budget.
func Put(b []byte) {
	if cap(b) < 1<<minClassBits || cap(b) > maxPooled {
		return
	}
	class := classFloor(cap(b))
	if class >= largeClass {
		large.mu.Lock()
		if large.idle+cap(b) <= idleBudget {
			large.idle += cap(b)
			list := &large.free[class-largeClass]
			*list = append(*list, b)
		}
		large.mu.Unlock()
		return
	}
	p, _ := empty.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b
	full[class].Put(p)
}

// Package framebuf pools call/reply frame buffers for the remoting hot
// path.
//
// Every forwarded call allocates at least two frames — the batch frame
// carrying the call and the reply frame carrying its results — and under
// pipelined load those allocations dominate the garbage produced per call.
// The pool recycles them across the layers that can prove exclusive
// ownership of a buffer:
//
//   - the guest library recycles its batch frames after a copying
//     transport has sent them, and reply frames after scattering outputs,
//   - the API server recycles received batch frames once every call in
//     the batch has executed (reference-counted by the dispatch workers)
//     and reply frames after a copying transport has sent them,
//   - the router recycles a frame it forwarded when the frame arrived
//     owned and the onward Send copied it out (transport.FrameOwnership
//     says both),
//   - the ring and TCP transports draw their per-frame receive buffers
//     from the pool instead of allocating fresh.
//
// Ownership is the entire contract: Put hands the buffer to the next Get,
// so a caller must not retain any alias into a buffer it has Put. A layer
// that cannot prove ownership of a frame simply never Puts it — a missed
// Put falls back to the garbage collector, never to corruption.
package framebuf

import (
	"math/bits"
	"sync"
)

// maxPooled caps the capacity of buffers kept by the pool. Oversized
// frames (a large DMA argument) are served and dropped so one huge call
// cannot pin megabytes inside the pool forever.
const maxPooled = 1 << 20

// Buffers are pooled by capacity class: four classes per power of two from
// minClass bytes up to maxPooled (64, 80, 96, 112, 128, 160, ...). A Get
// draws only from the class that guarantees its capacity, and allocates at
// the class size when the class is empty, so buffers of nearly equal size (a
// 256 KiB payload in a call frame and in its reply frame) are
// interchangeable, a small frame never walks off with a large buffer, and a
// large frame never draws — and then has to discard — a small one. The
// rounding costs at most a quarter of the requested size.
const (
	minClassBits = 6 // 64 bytes
	numClasses   = (20-minClassBits)*4 + 1
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

// Buffers travel through sync.Pool inside *[]byte holders (a bare slice
// would be boxed, allocating on every Put). Full holders live in their
// class's pool and empty ones in a pool of their own: with one pool for
// both, a Put could draw a holder that still carried a buffer and overwrite
// it, and a Get could draw an empty holder and allocate while full ones sat
// beside it.
var (
	full  [numClasses]sync.Pool // holders carrying a buffer, by class
	empty sync.Pool             // holders carrying none, awaiting the next Put
)

// Get returns a zero-length buffer with capacity at least n. The contents
// beyond length 0 are unspecified.
func Get(n int) []byte {
	if n > maxPooled {
		return make([]byte, 0, n) // never pooled: sized exactly
	}
	class := classCeil(n)
	p, _ := full[class].Get().(*[]byte)
	if p == nil {
		return make([]byte, 0, classSize(class))
	}
	b := *p
	*p = nil
	empty.Put(p)
	return b[:0]
}

// GetLen returns a length-n buffer with unspecified contents, for receive
// paths that fill it completely.
func GetLen(n int) []byte {
	b := Get(n)
	return b[:n]
}

// Put recycles b for a future Get. The caller must own b exclusively and
// must not touch it (or anything aliasing it) afterwards. Nil, tiny and
// oversized buffers are dropped.
func Put(b []byte) {
	if cap(b) < 1<<minClassBits || cap(b) > maxPooled {
		return
	}
	p, _ := empty.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b
	full[classFloor(cap(b))].Put(p)
}

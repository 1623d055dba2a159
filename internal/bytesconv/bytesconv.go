// Package bytesconv converts between typed numeric slices and the byte
// buffers that cross the AvA wire and live in simulated device memory.
//
// The guest library marshals buffers as raw bytes (as the real system DMAs
// untyped memory); workloads and kernels view those bytes as float32 / int32
// / uint32 / ... using the little-endian accessors here. Conversions are
// explicit copies — the cost models the (un)marshalling a real remoting
// stack pays — while the View types provide indexed access without copying
// for kernel inner loops.
package bytesconv

import (
	"encoding/binary"
	"math"
)

// Float32Bytes encodes a float32 slice.
func Float32Bytes(src []float32) []byte {
	out := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// ToFloat32 decodes a byte buffer into a new float32 slice.
func ToFloat32(src []byte) []float32 {
	out := make([]float32, len(src)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// Int32Bytes encodes an int32 slice.
func Int32Bytes(src []int32) []byte {
	out := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// ToInt32 decodes a byte buffer into a new int32 slice.
func ToInt32(src []byte) []int32 {
	out := make([]int32, len(src)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// Float32View provides indexed float32 access over a byte buffer without
// copying; kernels use it to treat device memory as a typed array.
type Float32View struct{ b []byte }

// F32 wraps a byte buffer as a Float32View.
func F32(b []byte) Float32View { return Float32View{b} }

// Len returns the element count.
func (v Float32View) Len() int { return len(v.b) / 4 }

// At returns element i.
func (v Float32View) At(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[4*i:]))
}

// Set stores element i.
func (v Float32View) Set(i int, x float32) {
	binary.LittleEndian.PutUint32(v.b[4*i:], math.Float32bits(x))
}

// Add accumulates into element i.
func (v Float32View) Add(i int, x float32) { v.Set(i, v.At(i)+x) }

// Int32View provides indexed int32 access over a byte buffer.
type Int32View struct{ b []byte }

// I32 wraps a byte buffer as an Int32View.
func I32(b []byte) Int32View { return Int32View{b} }

// Len returns the element count.
func (v Int32View) Len() int { return len(v.b) / 4 }

// At returns element i.
func (v Int32View) At(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.b[4*i:]))
}

// Set stores element i.
func (v Int32View) Set(i int, x int32) {
	binary.LittleEndian.PutUint32(v.b[4*i:], uint32(x))
}

// Uint32View provides indexed uint32 access over a byte buffer.
type Uint32View struct{ b []byte }

// U32 wraps a byte buffer as a Uint32View.
func U32(b []byte) Uint32View { return Uint32View{b} }

// Len returns the element count.
func (v Uint32View) Len() int { return len(v.b) / 4 }

// At returns element i.
func (v Uint32View) At(i int) uint32 { return binary.LittleEndian.Uint32(v.b[4*i:]) }

// Set stores element i.
func (v Uint32View) Set(i int, x uint32) { binary.LittleEndian.PutUint32(v.b[4*i:], x) }

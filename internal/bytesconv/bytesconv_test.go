package bytesconv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{0, 1.5, -2.25, float32(math.Pi), math.MaxFloat32}
	out := ToFloat32(Float32Bytes(in))
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("elem %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestQuickFloat32RoundTrip(t *testing.T) {
	f := func(in []float32) bool {
		out := ToFloat32(Float32Bytes(in))
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			a, b := in[i], out[i]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInt32RoundTrip(t *testing.T) {
	f := func(in []int32) bool {
		out := ToInt32(Int32Bytes(in))
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32View(t *testing.T) {
	b := Float32Bytes(make([]float32, 4))
	v := F32(b)
	if v.Len() != 4 {
		t.Fatalf("len = %d", v.Len())
	}
	v.Set(2, 3.5)
	if v.At(2) != 3.5 {
		t.Fatalf("at = %v", v.At(2))
	}
	v.Add(2, 1.5)
	if v.At(2) != 5 {
		t.Fatalf("after add = %v", v.At(2))
	}
	// The view writes through to the backing bytes.
	if got := ToFloat32(b)[2]; got != 5 {
		t.Fatalf("backing = %v", got)
	}
}

func TestInt32View(t *testing.T) {
	v := I32(make([]byte, 12))
	v.Set(0, -7)
	v.Set(2, 1<<30)
	if v.At(0) != -7 || v.At(2) != 1<<30 || v.Len() != 3 {
		t.Fatal("int32 view mismatch")
	}
}

func TestUint32View(t *testing.T) {
	v := U32(make([]byte, 8))
	v.Set(1, math.MaxUint32)
	if v.At(1) != math.MaxUint32 || v.Len() != 2 {
		t.Fatal("uint32 view mismatch")
	}
}

func TestEmptySlices(t *testing.T) {
	if len(Float32Bytes(nil)) != 0 || len(ToFloat32(nil)) != 0 {
		t.Fatal("empty conversion not empty")
	}
}

func BenchmarkFloat32Bytes1K(b *testing.B) {
	src := make([]float32, 1024)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Float32Bytes(src)
	}
}

func BenchmarkF32ViewSum1K(b *testing.B) {
	buf := Float32Bytes(make([]float32, 1024))
	v := F32(buf)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		var s float32
		for j := 0; j < v.Len(); j++ {
			s += v.At(j)
		}
		_ = s
	}
}

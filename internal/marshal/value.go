package marshal

import (
	"bytes"
	"fmt"
	"math"
	"unsafe"
)

// Value is one tagged argument or result on the wire, in four words: the kind
// tag, one numeric word, and a pointer and length that together hold a
// string's or a byte buffer's contents. A Value is created by the
// constructors below and read through its accessors; each accessor is
// meaningful for the kinds named on it and returns the zero value for any
// other. The pointer word needs package unsafe (a string and a []byte share
// it), and this is the only file in the tree that imports it (the unsafe
// row of scripts/gates.sh).
type Value struct {
	kind Kind
	num  uint64         // KindInt, KindUint, KindFloat (bits), KindBool, KindHandle, KindLen
	ptr  unsafe.Pointer // KindString, KindBytes: first byte of the contents
	n    uint64         // KindString, KindBytes: length
}

// Constructors for each value kind.

// Null returns the null value (nil pointer / absent buffer).
func Null() Value { return Value{} }

// Int returns a signed integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Uint returns an unsigned integer value.
func Uint(v uint64) Value { return Value{kind: KindUint, num: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Len returns a buffer placeholder carrying only a length.
func Len(n uint64) Value { return Value{kind: KindLen, num: n} }

// HandleVal returns a handle value.
func HandleVal(h Handle) Value { return Value{kind: KindHandle, num: uint64(h)} }

// Kind returns the value's kind tag.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer of a KindInt value.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.num)
}

// Uint returns the number of a KindUint, KindHandle or KindLen (the length)
// value.
func (v Value) Uint() uint64 {
	switch v.kind {
	case KindUint, KindHandle, KindLen:
		return v.num
	}
	return 0
}

// Float returns the float of a KindFloat value.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.num)
}

// Bool returns the boolean of a KindBool value.
func (v Value) Bool() bool { return v.kind == KindBool && v.num != 0 }

// Handle extracts the handle from a KindHandle value.
func (v Value) Handle() Handle { return Handle(v.Uint()) }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt reads any scalar kind as a signed integer — the conversion size
// expressions, sync conditions and out-element stores apply: integers and
// handles as themselves, a bool as 0/1, a float truncated. ok is false for
// the kinds that carry no scalar (null, string, bytes, len).
func (v Value) AsInt() (n int64, ok bool) {
	switch v.kind {
	case KindInt, KindUint, KindHandle, KindBool:
		return int64(v.num), true
	case KindFloat:
		return int64(math.Float64frombits(v.num)), true
	}
	return 0, false
}

// AsFloat reads a numeric kind as a float: a float as itself, an integer
// converted. ok is false for every other kind.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.num), true
	case KindInt:
		return float64(int64(v.num)), true
	case KindUint:
		return float64(v.num), true
	}
	return 0, false
}

// Equal reports whether two values are identical, comparing buffer contents.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindUint, KindHandle, KindLen, KindBool:
		return v.num == o.num
	case KindFloat:
		a, b := v.Float(), o.Float()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	case KindString:
		return v.Str() == o.Str()
	case KindBytes:
		return bytes.Equal(v.Bytes(), o.Bytes())
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return fmt.Sprintf("%d", v.Int())
	case KindUint:
		return fmt.Sprintf("%du", v.num)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindBool:
		return fmt.Sprintf("%t", v.Bool())
	case KindString:
		return fmt.Sprintf("%q", v.Str())
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", v.n)
	case KindLen:
		return fmt.Sprintf("len[%d]", v.num)
	case KindHandle:
		return fmt.Sprintf("h#%d", v.num)
	default:
		return v.kind.String()
	}
}

// Str returns a string value.
func Str(v string) Value {
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// BytesVal returns a byte-buffer value carrying contents. It aliases v; a nil
// v stays distinguishable from an empty one (Bytes returns nil for it).
func BytesVal(v []byte) Value {
	return Value{kind: KindBytes, ptr: unsafe.Pointer(unsafe.SliceData(v)), n: uint64(len(v))}
}

// Clone returns v with a KindBytes value's contents copied, so the result no
// longer aliases the frame or caller buffer v was built over (strings are
// copied at decode; every other kind holds no reference).
func (v Value) Clone() Value {
	if v.kind != KindBytes {
		return v
	}
	return BytesVal(append([]byte(nil), v.Bytes()...))
}

// Str returns the string of a KindString value.
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.n))
}

// Bytes returns the contents of a KindBytes value, aliasing whatever the
// value was built over (the caller's buffer, or the decoded frame).
func (v Value) Bytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return unsafe.Slice((*byte)(v.ptr), int(v.n))
}

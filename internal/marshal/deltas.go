package marshal

import (
	"errors"
	"fmt"
	"sort"
)

// Object-state encoding: the one form object state travels in, from a
// server's FuncSnapshot reply to a mirror's checkpoint sub-op and a
// MirrorState's object trailer. A checkpoint that knows the previous
// checkpoint's state per object ships only the byte ranges written since
// (the silo's dirty-range tracking supplies them) and the consumer composes
// them onto its held base with ApplyObjectDelta. An object whose tracking
// overflowed, or that has no usable base, travels as Full: one range
// covering everything. Full state is a delta set in which every object is
// Full.

// DeltaRange is one written byte range of an object's state.
type DeltaRange struct {
	Off   uint64
	Bytes []byte
}

// ObjectDelta is the incremental state of one object since a watermark.
type ObjectDelta struct {
	Handle  Handle
	BaseLen uint64 // full logical size of the object's state
	Full    bool   // Ranges hold the complete state, base not required
	Ranges  []DeltaRange
}

// FullDelta wraps a complete state snapshot as a Full delta.
func FullDelta(h Handle, state []byte) ObjectDelta {
	return ObjectDelta{
		Handle:  h,
		BaseLen: uint64(len(state)),
		Full:    true,
		Ranges:  []DeltaRange{{Off: 0, Bytes: state}},
	}
}

// DeltaBytes sums the payload bytes a delta carries — the quantity E14
// compares against the object footprint.
func (d ObjectDelta) DeltaBytes() int {
	n := 0
	for _, r := range d.Ranges {
		n += len(r.Bytes)
	}
	return n
}

// EncodeObjectDeltas packs deltas into a FuncSnapshot reply payload:
// [count u32] then per object, in ascending handle order,
// [handle u64][baseLen u64][full u8][rangeCount u32] followed by
// rangeCount records of [off u64][len u32][bytes].
func EncodeObjectDeltas(deltas []ObjectDelta) []byte {
	return AppendObjectDeltas(make([]byte, 0, ObjectDeltasSize(deltas)), deltas)
}

// ObjectDeltasSize is the length of deltas' EncodeObjectDeltas payload.
func ObjectDeltasSize(deltas []ObjectDelta) int {
	n := 4
	for _, d := range deltas {
		n += 21
		for _, r := range d.Ranges {
			n += 12 + len(r.Bytes)
		}
	}
	return n
}

// AppendObjectDeltas appends deltas' EncodeObjectDeltas payload to out, for
// a caller that draws the buffer from a pool.
func AppendObjectDeltas(out []byte, deltas []ObjectDelta) []byte {
	sorted := append([]ObjectDelta(nil), deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Handle < sorted[j].Handle })
	out = appendUint32(out, uint32(len(sorted)))
	for _, d := range sorted {
		out = appendUint64(out, uint64(d.Handle))
		out = appendUint64(out, d.BaseLen)
		if d.Full {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = appendUint32(out, uint32(len(d.Ranges)))
		for _, r := range d.Ranges {
			out = appendUint64(out, r.Off)
			out = appendUint32(out, uint32(len(r.Bytes)))
			out = append(out, r.Bytes...)
		}
	}
	return out
}

// DecodeObjectDeltas unpacks an EncodeObjectDeltas payload. The returned
// range contents alias b — each lies inside it, none is copied — so b must
// outlive every use of them: a caller that recycles b (a received frame)
// does so only once it is done with the deltas.
func DecodeObjectDeltas(b []byte) ([]ObjectDelta, error) {
	r := Reader{b: b}
	count, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint64(count) > uint64(len(r.Rest()))/21 {
		// Every object takes at least 21 bytes: refuse before sizing the
		// slice from a count the payload cannot hold (a 4-byte frame would
		// otherwise reserve 65 536 records, ~3 MB).
		return nil, fmt.Errorf("marshal: object deltas: %d objects in %d bytes: %w", count, len(r.Rest()), ErrTruncated)
	}
	out := make([]ObjectDelta, count)
	for i := range out {
		d := &out[i]
		h, e0 := r.U64()
		baseLen, e1 := r.U64()
		full, e2 := r.U8()
		ranges, e3 := r.U32()
		for j := uint32(0); j < ranges && e3 == nil; j++ {
			off, e4 := r.U64()
			raw, e5 := r.Bytes32()
			d.Ranges = append(d.Ranges, DeltaRange{Off: off, Bytes: raw[:len(raw):len(raw)]})
			e3 = errors.Join(e4, e5)
		}
		if err := errors.Join(e0, e1, e2, e3); err != nil {
			return nil, fmt.Errorf("marshal: object delta %d: %w", i, err)
		}
		d.Handle, d.BaseLen, d.Full = Handle(h), baseLen, full != 0
	}
	return out, r.Done()
}

// ApplyObjectDelta composes a delta onto the base state of the same
// object, returning the new full state (a fresh slice; base is not
// modified). A Full delta needs no base. A non-Full delta requires a base
// of exactly BaseLen bytes — a mismatch means the caller's base is from a
// different life of the object and the composition would corrupt state.
func ApplyObjectDelta(base []byte, d ObjectDelta) ([]byte, error) {
	// Validate BaseLen before allocating it: deltas arrive off the network,
	// and a Full one is bounded by nothing else.
	if d.Full {
		var have uint64
		for _, r := range d.Ranges {
			have += uint64(len(r.Bytes))
		}
		if have < d.BaseLen {
			return nil, fmt.Errorf("marshal: full delta for handle %d: %d bytes of ranges for a %d-byte state", d.Handle, have, d.BaseLen)
		}
	} else if uint64(len(base)) != d.BaseLen {
		return nil, fmt.Errorf("marshal: delta for handle %d: base %d bytes, want %d", d.Handle, len(base), d.BaseLen)
	}
	out := make([]byte, d.BaseLen)
	if !d.Full {
		copy(out, base)
	}
	for _, r := range d.Ranges {
		if r.Off > d.BaseLen || uint64(len(r.Bytes)) > d.BaseLen-r.Off {
			return nil, fmt.Errorf("marshal: delta for handle %d: range [%d,+%d) exceeds %d-byte state",
				d.Handle, r.Off, len(r.Bytes), d.BaseLen)
		}
		copy(out[r.Off:], r.Bytes)
	}
	return out, nil
}

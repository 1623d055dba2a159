package marshal

import (
	"errors"
	"fmt"
	"sort"
)

// EncodeObjectStates packs a handle→state map into the FuncSnapshot reply
// payload: [count u32] then count records of [handle u64][len u32][bytes].
// Records are emitted in ascending handle order so equal maps encode to
// equal bytes.
func EncodeObjectStates(objects map[Handle][]byte) []byte {
	hs := make([]Handle, 0, len(objects))
	n := 4
	for h, state := range objects {
		hs = append(hs, h)
		n += 12 + len(state)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	out := appendUint32(make([]byte, 0, n), uint32(len(hs)))
	for _, h := range hs {
		out = appendUint32(appendUint64(out, uint64(h)), uint32(len(objects[h])))
		out = append(out, objects[h]...)
	}
	return out
}

// DecodeObjectStates unpacks an EncodeObjectStates payload. The returned
// states are copies and do not alias b.
func DecodeObjectStates(b []byte) (map[Handle][]byte, error) {
	r := Reader{b: b}
	count, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint64(count) > uint64(len(r.Rest()))/12 {
		// Every record takes at least 12 bytes: refuse before sizing the map
		// from a count the payload cannot hold (a hostile 8-byte frame would
		// otherwise reserve a four-billion-entry table).
		return nil, fmt.Errorf("marshal: object states: %d records in %d bytes: %w", count, len(r.Rest()), ErrTruncated)
	}
	out := make(map[Handle][]byte, count)
	for i := uint32(0); i < count; i++ {
		h, e0 := r.U64()
		state, e1 := r.Bytes32()
		if err := errors.Join(e0, e1); err != nil {
			return nil, fmt.Errorf("marshal: object state %d: %w", i, err)
		}
		out[Handle(h)] = append([]byte(nil), state...)
	}
	return out, nil
}

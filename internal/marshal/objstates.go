package marshal

import (
	"encoding/binary"
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
	out := make([]byte, 4, n)
	binary.LittleEndian.PutUint32(out, uint32(len(hs)))
	for _, h := range hs {
		var rec [12]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(h))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(objects[h])))
		out = append(out, rec[:]...)
		out = append(out, objects[h]...)
	}
	return out
}

// DecodeObjectStates unpacks an EncodeObjectStates payload. The returned
// states are copies and do not alias b.
func DecodeObjectStates(b []byte) (map[Handle][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("marshal: object states truncated: %d bytes", len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(count) > uint64(len(b))/12 {
		// Every record takes at least 12 bytes: refuse before sizing the map
		// from a count the payload cannot hold (a hostile 8-byte frame would
		// otherwise reserve a four-billion-entry table).
		return nil, fmt.Errorf("marshal: object states truncated: %d records in %d bytes", count, len(b))
	}
	out := make(map[Handle][]byte, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 12 {
			return nil, fmt.Errorf("marshal: object state record %d truncated", i)
		}
		h := Handle(binary.LittleEndian.Uint64(b))
		n := binary.LittleEndian.Uint32(b[8:])
		b = b[12:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("marshal: object state %d short: want %d bytes, have %d", i, n, len(b))
		}
		out[h] = append([]byte(nil), b[:n]...)
		b = b[n:]
	}
	return out, nil
}

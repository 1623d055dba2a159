package mvnc

import (
	"encoding/binary"
	"fmt"

	"ava/internal/marshal"
)

// MigrationAdapter provides the migration/failover engines' silo-specific
// state operations for MVNC objects. Graphs are the only stateful kind:
// their pending-result FIFO and option values cannot be reconstructed by
// call replay (results are consumed destructively). Devices carry no state
// beyond open/closed, which replay handles.
type MigrationAdapter struct {
	Silo *Silo
}

// SnapshotObject implements server.Adapter. A graph's mutable state is tiny
// (queued result vectors plus options), so its delta is all-or-nothing: the
// full serialized state as one Full delta when full is set or the write
// generation moved since the previous capture, otherwise an empty delta
// carrying the unchanged state's length.
func (a MigrationAdapter) SnapshotObject(obj any, full bool) (marshal.ObjectDelta, bool, error) {
	g, ok := obj.(*Graph)
	if !ok {
		return marshal.ObjectDelta{}, false, nil
	}
	s := a.Silo
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.dead {
		return marshal.ObjectDelta{}, true, fmt.Errorf("mvnc: snapshot of deallocated graph")
	}
	if !full && g.gen == g.snapGen {
		return marshal.ObjectDelta{BaseLen: uint64(graphStateLen(g))}, true, nil
	}
	g.snapGen = g.gen
	return marshal.FullDelta(0, encodeGraphState(g)), true, nil
}

// RestoreObject implements server.Adapter.
func (a MigrationAdapter) RestoreObject(obj any, state []byte) error {
	g, ok := obj.(*Graph)
	if !ok {
		return fmt.Errorf("mvnc: state restore for non-graph object %T", obj)
	}
	s := a.Silo
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.dead {
		return fmt.Errorf("mvnc: restore of deallocated graph")
	}
	if err := decodeGraphState(g, state); err != nil {
		return err
	}
	// The base just changed out from under the delta watermark; force the
	// next capture to ship full state.
	g.gen++
	return nil
}

// graphStateLen is the length of encodeGraphState's output. Caller holds
// the silo mutex.
func graphStateLen(g *Graph) int {
	n := 8
	for _, res := range g.results {
		n += 4 + 4*len(res)
	}
	return n
}

// encodeGraphState serializes the graph's mutable state:
// [timeout u32][result count u32] then per result [len u32][f32 bits ...],
// all little-endian. Caller holds the silo mutex.
func encodeGraphState(g *Graph) []byte {
	b := make([]byte, 0, graphStateLen(g))
	b = binary.LittleEndian.AppendUint32(b, g.timeout)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.results)))
	for _, res := range g.results {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(res)))
		for _, v := range res {
			b = binary.LittleEndian.AppendUint32(b, f32bits(v))
		}
	}
	return b
}

// decodeGraphState is the inverse of encodeGraphState. Caller holds the
// silo mutex.
func decodeGraphState(g *Graph, b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("mvnc: graph state truncated (%d bytes)", len(b))
	}
	timeout := binary.LittleEndian.Uint32(b)
	count := binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	results := make([][]float32, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return fmt.Errorf("mvnc: graph state truncated in result %d", i)
		}
		rl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < 4*uint64(rl) {
			return fmt.Errorf("mvnc: graph state truncated in result %d", i)
		}
		res := make([]float32, rl)
		for j := range res {
			res[j] = f32(binary.LittleEndian.Uint32(b[4*j:]))
		}
		b = b[4*rl:]
		results = append(results, res)
	}
	if len(b) != 0 {
		return fmt.Errorf("mvnc: %d trailing bytes in graph state", len(b))
	}
	g.timeout = timeout
	g.results = results
	return nil
}

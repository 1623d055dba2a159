package cl

import (
	"fmt"

	"ava/internal/marshal"
)

// MigrationAdapter provides the migration engine's silo-specific state
// operations for OpenCL objects: buffers carry device memory contents that
// must be copied out at capture and synthesized back at restore; every
// other object kind is fully reconstructed by replaying its recorded
// creation and modification calls.
type MigrationAdapter struct {
	Silo *Silo
}

// SnapshotObject implements server.Adapter.
func (a MigrationAdapter) SnapshotObject(obj any) ([]byte, bool, error) {
	m, ok := obj.(*Mem)
	if !ok {
		return nil, false, nil
	}
	b, err := a.Silo.SnapshotBuffer(m)
	return b, true, err
}

// SnapshotObjectDelta implements server.DeltaAdapter for the
// failover guardian's checkpoints: it drains the buffer's dirty-range
// tracking into a marshal.ObjectDelta holding only the ranges written since
// the previous delta snapshot. The returned delta's Handle is left zero —
// the caller keys it. stateful is false for non-buffer objects (nothing to
// checkpoint). Draining advances the buffer's watermark, so the caller must
// either commit the delta or force a full snapshot next round (the guardian
// does exactly that on an aborted checkpoint).
func (a MigrationAdapter) SnapshotObjectDelta(obj any) (marshal.ObjectDelta, bool, error) {
	m, ok := obj.(*Mem)
	if !ok {
		return marshal.ObjectDelta{}, false, nil
	}
	size, full, ranges, err := a.Silo.SnapshotBufferDelta(m)
	if err != nil {
		return marshal.ObjectDelta{}, true, err
	}
	d := marshal.ObjectDelta{BaseLen: size, Full: full}
	for _, r := range ranges {
		d.Ranges = append(d.Ranges, marshal.DeltaRange{Off: r.Off, Bytes: r.Data})
	}
	return d, true, nil
}

// RestoreObject implements server.Adapter.
func (a MigrationAdapter) RestoreObject(obj any, state []byte) error {
	m, ok := obj.(*Mem)
	if !ok {
		return fmt.Errorf("cl: state restore for non-buffer object %T", obj)
	}
	return a.Silo.RestoreBuffer(m, state)
}

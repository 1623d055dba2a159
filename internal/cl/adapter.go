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

// SnapshotObject implements server.Adapter: a buffer drains its dirty-range
// tracking (Silo.SnapshotBufferDelta), so a guardian checkpoint ships only
// the ranges written since the previous capture. stateful is false for
// non-buffer objects (nothing to checkpoint).
func (a MigrationAdapter) SnapshotObject(obj any, full bool) (marshal.ObjectDelta, bool, error) {
	m, ok := obj.(*Mem)
	if !ok {
		return marshal.ObjectDelta{}, false, nil
	}
	d, err := a.Silo.SnapshotBufferDelta(m, full)
	return d, true, err
}

// RestoreObject implements server.Adapter.
func (a MigrationAdapter) RestoreObject(obj any, state []byte) error {
	m, ok := obj.(*Mem)
	if !ok {
		return fmt.Errorf("cl: state restore for non-buffer object %T", obj)
	}
	return a.Silo.RestoreBuffer(m, state)
}

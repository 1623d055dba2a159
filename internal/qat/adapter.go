package qat

import (
	"fmt"

	"ava/internal/marshal"
)

// MigrationAdapter provides the migration/failover engines' silo-specific
// state operations for QAT objects. QAT is a pure lookaside API: instances
// and sessions are configured entirely by their creation calls and every
// data buffer is call-scoped, so no object carries device state that call
// replay cannot reconstruct. All three hooks therefore report "stateless"
// — delta checkpoints for a QAT silo ship object metadata only.
type MigrationAdapter struct {
	Silo *Silo
}

// SnapshotObject implements server.Adapter.
func (a MigrationAdapter) SnapshotObject(obj any) ([]byte, bool, error) {
	return nil, false, nil
}

// SnapshotObjectDelta implements server.DeltaAdapter (the
// failover guardian's incremental checkpoints).
func (a MigrationAdapter) SnapshotObjectDelta(obj any) (marshal.ObjectDelta, bool, error) {
	return marshal.ObjectDelta{}, false, nil
}

// RestoreObject implements server.Adapter. It is unreachable through the
// normal capture/restore flow (SnapshotObject never reports stateful) and
// rejects any state handed to it.
func (a MigrationAdapter) RestoreObject(obj any, state []byte) error {
	return fmt.Errorf("qat: state restore for stateless object %T", obj)
}

package mvnc

import (
	"fmt"

	"ava/internal/marshal"
	"ava/internal/server"
)

var _ Implementation = (*Silo)(nil)

// BindServer registers the generated MVNC handlers (Register in
// stubs_gen.go, from mvnc.ava) against reg, executing on silo, which is the
// generated Implementation itself: MVNC needs no hook. BindServer also
// installs the silo's object-state Adapter on reg.
func BindServer(reg *server.Registry, silo *Silo) {
	Register(reg, silo)
	reg.Adapter = MigrationAdapter{Silo: silo}
}

// Client is the uniform MVNC programming surface; as with cl.Client, the
// identical application runs natively and fully remoted.
type Client interface {
	DeviceCount() (int, error)
	DeviceName(index uint32) (string, error)
	OpenDevice(index uint32) (Ref, error)
	CloseDevice(d Ref) error
	AllocateGraph(d Ref, name string, blob []byte) (Ref, error)
	DeallocateGraph(g Ref) error
	LoadTensor(g Ref, tensor []byte) error
	GetResult(g Ref, dst []byte) error
	SetGraphOption(g Ref, option, value uint32) error
	GetGraphOption(g Ref, option uint32) (uint32, error)
	DeferredError() error
}

// Ref is an opaque device/graph reference.
type Ref struct {
	obj any
	h   marshal.Handle
}

// Error is an MVNC failure status.
type Error struct {
	Op     string
	Status int32
}

func (e *Error) Error() string { return fmt.Sprintf("mvnc: %s: status %d", e.Op, e.Status) }

func mvErr(op string, st int32) error {
	if st == OK {
		return nil
	}
	return &Error{Op: op, Status: st}
}

package mvnc

import (
	"fmt"

	"ava/internal/marshal"
	"ava/internal/server"
)

// BindServer registers the generated MVNC handlers (Register in
// stubs_gen.go, from mvnc.ava) against reg, executing on silo. The binding
// below is the silo as the generated Implementation: argument conversions
// only, no hooks. BindServer also installs the silo's object-state Adapter
// on reg.
func BindServer(reg *server.Registry, silo *Silo) {
	Register(reg, binding{silo})
	reg.Adapter = MigrationAdapter{Silo: silo}
}

type binding struct{ s *Silo }

func (b binding) MvncGetDeviceCount(*server.Context) (uint32, int32) {
	return uint32(b.s.DeviceCount()), OK
}

func (b binding) MvncGetDeviceName(_ *server.Context, index uint32, _ uint64, dst []byte) int32 {
	name, st := b.s.DeviceName(index)
	copy(dst, name)
	return st
}

func (b binding) MvncOpenDevice(_ *server.Context, index uint32) (*Device, int32) {
	return b.s.OpenDevice(index)
}

func (b binding) MvncCloseDevice(_ *server.Context, d *Device) int32 { return b.s.CloseDevice(d) }

func (b binding) MvncAllocateGraph(_ *server.Context, d *Device, name string, _ uint64, blob []byte) (*Graph, int32) {
	return b.s.AllocateGraph(d, name, blob)
}

func (b binding) MvncDeallocateGraph(_ *server.Context, g *Graph) int32 {
	return b.s.DeallocateGraph(g)
}

func (b binding) MvncLoadTensor(_ *server.Context, g *Graph, _ uint64, tensor []byte) int32 {
	return b.s.LoadTensor(g, tensor)
}

func (b binding) MvncGetResult(_ *server.Context, g *Graph, _ uint64, dst []byte) int32 {
	return b.s.GetResult(g, dst)
}

func (b binding) MvncSetGraphOption(_ *server.Context, g *Graph, option, value uint32) int32 {
	return b.s.SetGraphOption(g, option, value)
}

func (b binding) MvncGetGraphOption(_ *server.Context, g *Graph, option uint32) (uint32, int32) {
	return b.s.GetGraphOption(g, option)
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

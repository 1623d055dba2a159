package mvnc

import (
	"ava/internal/guest"
	"ava/internal/marshal"
)

// NativeClient executes MVNC calls directly against the silo's spec-shaped
// methods, with a nil server context.
type NativeClient struct {
	silo *Silo
}

// NewNative binds a client to silo.
func NewNative(s *Silo) *NativeClient { return &NativeClient{silo: s} }

// DeviceCount implements Client.
func (c *NativeClient) DeviceCount() (int, error) {
	n, st := c.silo.MvncGetDeviceCount(nil)
	return int(n), mvErr("mvncGetDeviceCount", st)
}

// DeviceName implements Client.
func (c *NativeClient) DeviceName(index uint32) (string, error) {
	buf := make([]byte, 64)
	if err := mvErr("mvncGetDeviceName", c.silo.MvncGetDeviceName(nil, index, uint64(len(buf)), buf)); err != nil {
		return "", err
	}
	return cString(buf), nil
}

// OpenDevice implements Client.
func (c *NativeClient) OpenDevice(index uint32) (Ref, error) {
	d, st := c.silo.MvncOpenDevice(nil, index)
	return Ref{obj: d}, mvErr("mvncOpenDevice", st)
}

// CloseDevice implements Client.
func (c *NativeClient) CloseDevice(r Ref) error {
	d, _ := r.obj.(*Device)
	return mvErr("mvncCloseDevice", c.silo.MvncCloseDevice(nil, d))
}

// AllocateGraph implements Client.
func (c *NativeClient) AllocateGraph(r Ref, name string, blob []byte) (Ref, error) {
	d, _ := r.obj.(*Device)
	g, st := c.silo.MvncAllocateGraph(nil, d, name, uint64(len(blob)), blob)
	return Ref{obj: g}, mvErr("mvncAllocateGraph", st)
}

// DeallocateGraph implements Client.
func (c *NativeClient) DeallocateGraph(r Ref) error {
	g, _ := r.obj.(*Graph)
	return mvErr("mvncDeallocateGraph", c.silo.MvncDeallocateGraph(nil, g))
}

// LoadTensor implements Client.
func (c *NativeClient) LoadTensor(r Ref, tensor []byte) error {
	g, _ := r.obj.(*Graph)
	return mvErr("mvncLoadTensor", c.silo.MvncLoadTensor(nil, g, uint64(len(tensor)), tensor))
}

// GetResult implements Client.
func (c *NativeClient) GetResult(r Ref, dst []byte) error {
	g, _ := r.obj.(*Graph)
	return mvErr("mvncGetResult", c.silo.MvncGetResult(nil, g, uint64(len(dst)), dst))
}

// SetGraphOption implements Client.
func (c *NativeClient) SetGraphOption(r Ref, option, value uint32) error {
	g, _ := r.obj.(*Graph)
	return mvErr("mvncSetGraphOption", c.silo.MvncSetGraphOption(nil, g, option, value))
}

// GetGraphOption implements Client.
func (c *NativeClient) GetGraphOption(r Ref, option uint32) (uint32, error) {
	g, _ := r.obj.(*Graph)
	v, st := c.silo.MvncGetGraphOption(nil, g, option)
	return v, mvErr("mvncGetGraphOption", st)
}

// DeferredError implements Client.
func (c *NativeClient) DeferredError() error { return nil }

// RemoteClient is the Client facade over the generated MVNC guest library
// (Stubs, stubs_gen.go): Ref wrapping and status-to-error mapping only.
type RemoteClient struct{ s *Stubs }

// NewRemote wraps an attached guest library speaking the MVNC Spec.
func NewRemote(lib *guest.Lib) *RemoteClient { return &RemoteClient{s: NewStubs(lib)} }

// Lib exposes the stub engine.
func (c *RemoteClient) Lib() *guest.Lib { return c.s.Lib() }

// With returns a client whose calls also carry opts (deadline, priority,
// overload retry, flush slack); the receiver is unchanged. Options fold
// over the receiver's set; pass a guest.CallOptions literal to replace it
// wholesale.
func (c *RemoteClient) With(opts ...guest.CallOption) *RemoteClient {
	return &RemoteClient{s: c.s.With(opts...)}
}

// st interprets a status return value plus stack errors.
func st(op string, code int32, err error) error {
	if err != nil {
		return err
	}
	return mvErr(op, code)
}

// DeviceCount implements Client.
func (c *RemoteClient) DeviceCount() (int, error) {
	var n uint32
	code, err := c.s.MvncGetDeviceCount(&n)
	return int(n), st("mvncGetDeviceCount", code, err)
}

// DeviceName implements Client.
func (c *RemoteClient) DeviceName(index uint32) (string, error) {
	buf := make([]byte, 64)
	code, err := c.s.MvncGetDeviceName(index, uint64(len(buf)), buf)
	if err := st("mvncGetDeviceName", code, err); err != nil {
		return "", err
	}
	return cString(buf), nil
}

// cString is the NUL-terminated name a device-name buffer holds.
func cString(buf []byte) string {
	n := 0
	for n < len(buf) && buf[n] != 0 {
		n++
	}
	return string(buf[:n])
}

// OpenDevice implements Client.
func (c *RemoteClient) OpenDevice(index uint32) (Ref, error) {
	var h marshal.Handle
	code, err := c.s.MvncOpenDevice(index, &h)
	return Ref{h: h}, st("mvncOpenDevice", code, err)
}

// CloseDevice implements Client.
func (c *RemoteClient) CloseDevice(r Ref) error {
	code, err := c.s.MvncCloseDevice(r.h)
	return st("mvncCloseDevice", code, err)
}

// AllocateGraph implements Client.
func (c *RemoteClient) AllocateGraph(r Ref, name string, blob []byte) (Ref, error) {
	var h marshal.Handle
	code, err := c.s.MvncAllocateGraph(r.h, name, uint64(len(blob)), blob, &h)
	return Ref{h: h}, st("mvncAllocateGraph", code, err)
}

// DeallocateGraph implements Client.
func (c *RemoteClient) DeallocateGraph(r Ref) error {
	code, err := c.s.MvncDeallocateGraph(r.h)
	return st("mvncDeallocateGraph", code, err)
}

// LoadTensor implements Client.
func (c *RemoteClient) LoadTensor(r Ref, tensor []byte) error {
	code, err := c.s.MvncLoadTensor(r.h, uint64(len(tensor)), tensor)
	return st("mvncLoadTensor", code, err)
}

// GetResult implements Client.
func (c *RemoteClient) GetResult(r Ref, dst []byte) error {
	code, err := c.s.MvncGetResult(r.h, uint64(len(dst)), dst)
	return st("mvncGetResult", code, err)
}

// SetGraphOption implements Client.
func (c *RemoteClient) SetGraphOption(r Ref, option, value uint32) error {
	code, err := c.s.MvncSetGraphOption(r.h, option, value)
	return st("mvncSetGraphOption", code, err)
}

// GetGraphOption implements Client.
func (c *RemoteClient) GetGraphOption(r Ref, option uint32) (uint32, error) {
	var v uint32
	code, err := c.s.MvncGetGraphOption(r.h, option, &v)
	return v, st("mvncGetGraphOption", code, err)
}

// DeferredError implements Client.
func (c *RemoteClient) DeferredError() error { return c.s.Lib().DeferredError() }

var (
	_ Client = (*NativeClient)(nil)
	_ Client = (*RemoteClient)(nil)
)

package qat

import (
	"fmt"

	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
)

var _ Implementation = (*Silo)(nil)

// BindServer registers the generated QAT handlers (Register in stubs_gen.go,
// from qat.ava) against reg, executing on silo, which is the generated
// Implementation itself: QAT needs no hook, and no object-state Adapter
// either — instances and sessions are configured entirely by their creation
// calls and every data buffer is call-scoped, so replay rebuilds them all.
func BindServer(reg *server.Registry, silo *Silo) { Register(reg, silo) }

// Error is a QAT failure status.
type Error struct {
	Op     string
	Status int32
}

func (e *Error) Error() string { return fmt.Sprintf("qat: %s: status %d", e.Op, e.Status) }

func qErr(op string, st int32) error {
	if st == OK {
		return nil
	}
	return &Error{Op: op, Status: st}
}

// Ref is an opaque instance/session reference.
type Ref struct {
	obj any
	h   marshal.Handle
}

// Client is the uniform QAT programming surface.
type Client interface {
	NumInstances() (int, error)
	StartInstance(index uint32) (Ref, error)
	StopInstance(inst Ref) error
	SessionInit(inst Ref, direction, level uint32) (Ref, error)
	SessionTeardown(sess Ref) error
	Compress(sess Ref, src, dst []byte) (int, error)
	Decompress(sess Ref, src, dst []byte) (int, error)
	Hash(inst Ref, src []byte) ([32]byte, error)
}

// NativeClient executes directly against the silo's spec-shaped methods,
// with a nil server context.
type NativeClient struct{ silo *Silo }

// NewNative binds a client to the silo.
func NewNative(s *Silo) *NativeClient { return &NativeClient{silo: s} }

// NumInstances implements Client.
func (c *NativeClient) NumInstances() (int, error) {
	n, st := c.silo.QatGetNumInstances(nil)
	return int(n), qErr("qatGetNumInstances", st)
}

// StartInstance implements Client.
func (c *NativeClient) StartInstance(index uint32) (Ref, error) {
	in, st := c.silo.QatStartInstance(nil, index)
	return Ref{obj: in}, qErr("qatStartInstance", st)
}

// StopInstance implements Client.
func (c *NativeClient) StopInstance(r Ref) error {
	in, _ := r.obj.(*Instance)
	return qErr("qatStopInstance", c.silo.QatStopInstance(nil, in))
}

// SessionInit implements Client.
func (c *NativeClient) SessionInit(r Ref, direction, level uint32) (Ref, error) {
	in, _ := r.obj.(*Instance)
	sess, st := c.silo.QatSessionInit(nil, in, direction, level)
	return Ref{obj: sess}, qErr("qatSessionInit", st)
}

// SessionTeardown implements Client.
func (c *NativeClient) SessionTeardown(r Ref) error {
	sess, _ := r.obj.(*Session)
	return qErr("qatSessionTeardown", c.silo.QatSessionTeardown(nil, sess))
}

// Compress implements Client.
func (c *NativeClient) Compress(r Ref, src, dst []byte) (int, error) {
	sess, _ := r.obj.(*Session)
	n, st := c.silo.QatCompress(nil, sess, uint64(len(src)), src, uint64(len(dst)), dst)
	return int(n), qErr("qatCompress", st)
}

// Decompress implements Client.
func (c *NativeClient) Decompress(r Ref, src, dst []byte) (int, error) {
	sess, _ := r.obj.(*Session)
	n, st := c.silo.QatDecompress(nil, sess, uint64(len(src)), src, uint64(len(dst)), dst)
	return int(n), qErr("qatDecompress", st)
}

// Hash implements Client.
func (c *NativeClient) Hash(r Ref, src []byte) ([32]byte, error) {
	in, _ := r.obj.(*Instance)
	var d [32]byte
	st := c.silo.QatHash(nil, in, uint64(len(src)), src, d[:])
	return d, qErr("qatHash", st)
}

// RemoteClient is the Client facade over the generated QAT guest library
// (Stubs, stubs_gen.go): Ref wrapping and status-to-error mapping only.
type RemoteClient struct{ s *Stubs }

// NewRemote wraps an attached guest library speaking the QAT Spec.
func NewRemote(lib *guest.Lib) *RemoteClient { return &RemoteClient{s: NewStubs(lib)} }

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
	return qErr(op, code)
}

// NumInstances implements Client.
func (c *RemoteClient) NumInstances() (int, error) {
	var n uint32
	code, err := c.s.QatGetNumInstances(&n)
	return int(n), st("qatGetNumInstances", code, err)
}

// StartInstance implements Client.
func (c *RemoteClient) StartInstance(index uint32) (Ref, error) {
	var h marshal.Handle
	code, err := c.s.QatStartInstance(index, &h)
	return Ref{h: h}, st("qatStartInstance", code, err)
}

// StopInstance implements Client.
func (c *RemoteClient) StopInstance(r Ref) error {
	code, err := c.s.QatStopInstance(r.h)
	return st("qatStopInstance", code, err)
}

// SessionInit implements Client.
func (c *RemoteClient) SessionInit(r Ref, direction, level uint32) (Ref, error) {
	var h marshal.Handle
	code, err := c.s.QatSessionInit(r.h, direction, level, &h)
	return Ref{h: h}, st("qatSessionInit", code, err)
}

// SessionTeardown implements Client.
func (c *RemoteClient) SessionTeardown(r Ref) error {
	code, err := c.s.QatSessionTeardown(r.h)
	return st("qatSessionTeardown", code, err)
}

// Compress implements Client.
func (c *RemoteClient) Compress(r Ref, src, dst []byte) (int, error) {
	var produced uint32
	code, err := c.s.QatCompress(r.h, uint64(len(src)), src, uint64(len(dst)), dst, &produced)
	return int(produced), st("qatCompress", code, err)
}

// Decompress implements Client.
func (c *RemoteClient) Decompress(r Ref, src, dst []byte) (int, error) {
	var produced uint32
	code, err := c.s.QatDecompress(r.h, uint64(len(src)), src, uint64(len(dst)), dst, &produced)
	return int(produced), st("qatDecompress", code, err)
}

// Hash implements Client.
func (c *RemoteClient) Hash(r Ref, src []byte) ([32]byte, error) {
	var d [32]byte
	code, err := c.s.QatHash(r.h, uint64(len(src)), src, d[:])
	return d, st("qatHash", code, err)
}

var (
	_ Client = (*NativeClient)(nil)
	_ Client = (*RemoteClient)(nil)
)

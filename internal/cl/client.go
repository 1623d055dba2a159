package cl

import (
	"encoding/binary"
	"fmt"
	"math"

	"ava/internal/marshal"
)

// Error is an OpenCL failure status surfaced through the Client facade.
type Error struct {
	Op     string
	Status Status
}

func (e *Error) Error() string { return fmt.Sprintf("cl: %s: status %d", e.Op, e.Status) }

func clErr(op string, st Status) error {
	if st == Success {
		return nil
	}
	return &Error{Op: op, Status: st}
}

// Ref is an opaque reference to an OpenCL object, valid for the Client
// that produced it. For a native client it wraps the silo object; for a
// remote client it wraps the guest-visible handle — the same duality a
// real application never observes.
type Ref struct {
	obj  any
	h    marshal.Handle
	wire *[8]byte // remote cl_mem only: h as clSetKernelArg carries it
}

// Nil reports whether the reference is empty.
func (r Ref) Nil() bool { return r.obj == nil && r.h == 0 }

// Handle exposes the remote handle (remote refs only); used by tests and
// the migration engine.
func (r Ref) Handle() marshal.Handle { return r.h }

// NativeMem unwraps a native client Ref to its buffer object; ok is false
// for remote refs or non-buffer refs. The swap manager and tests use it.
func NativeMem(r Ref) (*Mem, bool) {
	m, ok := r.obj.(*Mem)
	return m, ok
}

// NativeKernel unwraps a native client Ref to its kernel object.
func NativeKernel(r Ref) (*Kernel, bool) {
	k, ok := r.obj.(*Kernel)
	return k, ok
}

// Client is the uniform programming surface over the 39 virtualized
// functions. The Rodinia workloads and examples are written against this
// interface, so the identical program runs on the native silo (the paper's
// bare-metal baseline) and through the full AvA stack.
type Client interface {
	PlatformIDs() ([]Ref, error)
	PlatformInfo(p Ref, param uint32) ([]byte, error)
	DeviceIDs(p Ref, devType uint64) ([]Ref, error)
	DeviceInfo(d Ref, param uint32) ([]byte, error)

	CreateContext(devs []Ref) (Ref, error)
	ReleaseContext(c Ref) error
	ContextInfo(c Ref, param uint32) ([]byte, error)

	CreateQueue(c, d Ref, properties uint64) (Ref, error)
	ReleaseQueue(q Ref) error

	CreateBuffer(c Ref, flags uint64, size uint64) (Ref, error)
	ReleaseBuffer(m Ref) error

	CreateProgram(c Ref, source string) (Ref, error)
	BuildProgram(p Ref, options string) error
	ProgramBuildLog(p Ref) (string, error)
	ReleaseProgram(p Ref) error

	CreateKernel(p Ref, name string) (Ref, error)
	ReleaseKernel(k Ref) error
	SetKernelArgBuffer(k Ref, index uint32, m Ref) error
	SetKernelArgScalar(k Ref, index uint32, val []byte) error

	EnqueueNDRange(q, k Ref, global, local []uint64) error
	EnqueueNDRangeEvent(q, k Ref, global, local []uint64) (Ref, error)
	EnqueueRead(q, m Ref, blocking bool, offset uint64, dst []byte) error
	EnqueueWrite(q, m Ref, blocking bool, offset uint64, src []byte) error
	EnqueueCopy(q, src, dst Ref, srcOff, dstOff, size uint64) error
	EnqueueFill(q, m Ref, pattern []byte, offset, size uint64) error
	EnqueueMarker(q Ref) (Ref, error)
	EnqueueBarrier(q Ref) error

	Finish(q Ref) error
	Flush(q Ref) error
	WaitForEvents(events []Ref) error
	EventProfiling(e Ref, param uint32) (uint64, error)
	ReleaseEvent(e Ref) error

	// DeferredError surfaces failures of asynchronously forwarded calls
	// (always nil on the native path, where no call is ever deferred).
	DeferredError() error
}

// Scalar argument encoding helpers shared by workloads.

// ArgU32 encodes a uint32 kernel argument.
func ArgU32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

// ArgI32 encodes an int32 kernel argument.
func ArgI32(v int32) []byte { return ArgU32(uint32(v)) }

// ArgF32 encodes a float32 kernel argument.
func ArgF32(v float32) []byte { return ArgU32(math.Float32bits(v)) }

// --- Native client ---

// NativeClient executes directly against the silo: the paper's native
// (pass-through) baseline, with no marshalling, transport or routing. It
// calls the silo's spec-shaped methods with a nil server context, and the
// typed entries where those would cost an encode (kernel arguments, work
// sizes).
type NativeClient struct {
	silo *Silo
}

// NewNative returns a client bound directly to silo.
func NewNative(s *Silo) *NativeClient { return &NativeClient{silo: s} }

func nref(obj any) Ref { return Ref{obj: obj} }

func (c *NativeClient) PlatformIDs() ([]Ref, error) {
	ps := c.silo.GetPlatformIDs()
	out := make([]Ref, len(ps))
	for i, p := range ps {
		out[i] = nref(p)
	}
	return out, nil
}

func (c *NativeClient) PlatformInfo(p Ref, param uint32) ([]byte, error) {
	pl, _ := p.obj.(*Platform)
	n, st := c.silo.ClGetPlatformInfo(nil, pl, param, 0, nil)
	if st != Success {
		return nil, clErr("clGetPlatformInfo", st)
	}
	buf := make([]byte, n)
	c.silo.ClGetPlatformInfo(nil, pl, param, n, buf)
	return buf, nil
}

func (c *NativeClient) DeviceIDs(p Ref, devType uint64) ([]Ref, error) {
	pl, _ := p.obj.(*Platform)
	ds, st := c.silo.GetDeviceIDs(pl, devType)
	if st != Success {
		return nil, clErr("clGetDeviceIDs", st)
	}
	out := make([]Ref, len(ds))
	for i, d := range ds {
		out[i] = nref(d)
	}
	return out, nil
}

func (c *NativeClient) DeviceInfo(d Ref, param uint32) ([]byte, error) {
	dv, _ := d.obj.(*Device)
	n, st := c.silo.ClGetDeviceInfo(nil, dv, param, 0, nil)
	if st != Success {
		return nil, clErr("clGetDeviceInfo", st)
	}
	buf := make([]byte, n)
	c.silo.ClGetDeviceInfo(nil, dv, param, n, buf)
	return buf, nil
}

func (c *NativeClient) CreateContext(devs []Ref) (Ref, error) {
	ds := make([]*Device, len(devs))
	for i, r := range devs {
		ds[i], _ = r.obj.(*Device)
	}
	st, ctx := c.silo.ClCreateContext(nil, uint32(len(ds)), ds)
	if st != Success {
		return Ref{}, clErr("clCreateContext", st)
	}
	return nref(ctx), nil
}

func (c *NativeClient) ReleaseContext(r Ref) error {
	ctx, _ := r.obj.(*Context)
	return clErr("clReleaseContext", c.silo.ClReleaseContext(nil, ctx))
}

func (c *NativeClient) ContextInfo(r Ref, param uint32) ([]byte, error) {
	ctx, _ := r.obj.(*Context)
	n, st := c.silo.ClGetContextInfo(nil, ctx, param, 0, nil)
	if st != Success {
		return nil, clErr("clGetContextInfo", st)
	}
	buf := make([]byte, n)
	c.silo.ClGetContextInfo(nil, ctx, param, n, buf)
	return buf, nil
}

func (c *NativeClient) CreateQueue(cr, dr Ref, properties uint64) (Ref, error) {
	ctx, _ := cr.obj.(*Context)
	dev, _ := dr.obj.(*Device)
	st, q := c.silo.ClCreateCommandQueue(nil, ctx, dev, properties)
	if st != Success {
		return Ref{}, clErr("clCreateCommandQueue", st)
	}
	return nref(q), nil
}

func (c *NativeClient) ReleaseQueue(r Ref) error {
	q, _ := r.obj.(*Queue)
	return clErr("clReleaseCommandQueue", c.silo.ClReleaseCommandQueue(nil, q))
}

func (c *NativeClient) CreateBuffer(cr Ref, flags uint64, size uint64) (Ref, error) {
	ctx, _ := cr.obj.(*Context)
	st, m := c.silo.ClCreateBuffer(nil, ctx, flags, size)
	if st != Success {
		return Ref{}, clErr("clCreateBuffer", st)
	}
	return nref(m), nil
}

func (c *NativeClient) ReleaseBuffer(r Ref) error {
	m, _ := r.obj.(*Mem)
	return clErr("clReleaseMemObject", c.silo.ClReleaseMemObject(nil, m))
}

func (c *NativeClient) CreateProgram(cr Ref, source string) (Ref, error) {
	ctx, _ := cr.obj.(*Context)
	st, p := c.silo.ClCreateProgramWithSource(nil, ctx, source)
	if st != Success {
		return Ref{}, clErr("clCreateProgramWithSource", st)
	}
	return nref(p), nil
}

func (c *NativeClient) BuildProgram(r Ref, options string) error {
	p, _ := r.obj.(*Program)
	return clErr("clBuildProgram", c.silo.ClBuildProgram(nil, p, options))
}

func (c *NativeClient) ProgramBuildLog(r Ref) (string, error) {
	p, _ := r.obj.(*Program)
	n, st := c.silo.ClGetProgramBuildInfo(nil, p, ProgramBuildLog, 0, nil)
	if st != Success {
		return "", clErr("clGetProgramBuildInfo", st)
	}
	buf := make([]byte, n)
	c.silo.ClGetProgramBuildInfo(nil, p, ProgramBuildLog, n, buf)
	return string(buf), nil
}

func (c *NativeClient) ReleaseProgram(r Ref) error {
	p, _ := r.obj.(*Program)
	return clErr("clReleaseProgram", c.silo.ClReleaseProgram(nil, p))
}

func (c *NativeClient) CreateKernel(r Ref, name string) (Ref, error) {
	p, _ := r.obj.(*Program)
	st, k := c.silo.ClCreateKernel(nil, p, name)
	if st != Success {
		return Ref{}, clErr("clCreateKernel", st)
	}
	return nref(k), nil
}

func (c *NativeClient) ReleaseKernel(r Ref) error {
	k, _ := r.obj.(*Kernel)
	return clErr("clReleaseKernel", c.silo.ClReleaseKernel(nil, k))
}

func (c *NativeClient) SetKernelArgBuffer(kr Ref, index uint32, mr Ref) error {
	k, _ := kr.obj.(*Kernel)
	m, _ := mr.obj.(*Mem)
	return clErr("clSetKernelArg", c.silo.SetKernelArgBuffer(k, index, m))
}

func (c *NativeClient) SetKernelArgScalar(kr Ref, index uint32, val []byte) error {
	k, _ := kr.obj.(*Kernel)
	return clErr("clSetKernelArg", c.silo.SetKernelArgBytes(k, index, val))
}

func (c *NativeClient) EnqueueNDRange(qr, kr Ref, global, local []uint64) error {
	_, err := c.EnqueueNDRangeEvent(qr, kr, global, local)
	return err
}

func (c *NativeClient) EnqueueNDRangeEvent(qr, kr Ref, global, local []uint64) (Ref, error) {
	q, _ := qr.obj.(*Queue)
	k, _ := kr.obj.(*Kernel)
	ev, st := c.silo.EnqueueNDRangeKernel(q, k, global, local)
	if st != Success {
		return Ref{}, clErr("clEnqueueNDRangeKernel", st)
	}
	return nref(ev), nil
}

func (c *NativeClient) EnqueueRead(qr, mr Ref, blocking bool, offset uint64, dst []byte) error {
	q, _ := qr.obj.(*Queue)
	m, _ := mr.obj.(*Mem)
	_, st := c.silo.ClEnqueueReadBuffer(nil, q, m, boolArg(blocking), offset, uint64(len(dst)), dst, 0, nil)
	return clErr("clEnqueueReadBuffer", st)
}

func (c *NativeClient) EnqueueWrite(qr, mr Ref, blocking bool, offset uint64, src []byte) error {
	q, _ := qr.obj.(*Queue)
	m, _ := mr.obj.(*Mem)
	_, st := c.silo.ClEnqueueWriteBuffer(nil, q, m, boolArg(blocking), offset, uint64(len(src)), src, 0, nil)
	return clErr("clEnqueueWriteBuffer", st)
}

func (c *NativeClient) EnqueueCopy(qr, sr, dr Ref, srcOff, dstOff, size uint64) error {
	q, _ := qr.obj.(*Queue)
	s, _ := sr.obj.(*Mem)
	d, _ := dr.obj.(*Mem)
	_, st := c.silo.ClEnqueueCopyBuffer(nil, q, s, d, srcOff, dstOff, size, 0, nil)
	return clErr("clEnqueueCopyBuffer", st)
}

func (c *NativeClient) EnqueueFill(qr, mr Ref, pattern []byte, offset, size uint64) error {
	q, _ := qr.obj.(*Queue)
	m, _ := mr.obj.(*Mem)
	_, st := c.silo.ClEnqueueFillBuffer(nil, q, m, pattern, uint64(len(pattern)), offset, size, 0, nil)
	return clErr("clEnqueueFillBuffer", st)
}

func (c *NativeClient) EnqueueMarker(qr Ref) (Ref, error) {
	q, _ := qr.obj.(*Queue)
	ev, st := c.silo.ClEnqueueMarker(nil, q)
	if st != Success {
		return Ref{}, clErr("clEnqueueMarker", st)
	}
	return nref(ev), nil
}

func (c *NativeClient) EnqueueBarrier(qr Ref) error {
	q, _ := qr.obj.(*Queue)
	return clErr("clEnqueueBarrier", c.silo.ClEnqueueBarrier(nil, q))
}

func (c *NativeClient) Finish(qr Ref) error {
	q, _ := qr.obj.(*Queue)
	return clErr("clFinish", c.silo.ClFinish(nil, q))
}

func (c *NativeClient) Flush(qr Ref) error {
	q, _ := qr.obj.(*Queue)
	return clErr("clFlush", c.silo.ClFlush(nil, q))
}

func (c *NativeClient) WaitForEvents(events []Ref) error {
	evs := make([]*Event, len(events))
	for i, r := range events {
		evs[i], _ = r.obj.(*Event)
	}
	return clErr("clWaitForEvents", c.silo.ClWaitForEvents(nil, uint32(len(evs)), evs))
}

func (c *NativeClient) EventProfiling(er Ref, param uint32) (uint64, error) {
	e, _ := er.obj.(*Event)
	buf := make([]byte, 8)
	if _, st := c.silo.ClGetEventProfilingInfo(nil, e, param, uint64(len(buf)), buf); st != Success {
		return 0, clErr("clGetEventProfilingInfo", st)
	}
	return binary.LittleEndian.Uint64(buf), nil
}

func (c *NativeClient) ReleaseEvent(er Ref) error {
	e, _ := er.obj.(*Event)
	return clErr("clReleaseEvent", c.silo.ClReleaseEvent(nil, e))
}

func (c *NativeClient) DeferredError() error { return nil }

var _ Client = (*NativeClient)(nil)

// NativeDevice unwraps a native client Ref to its device object.
func NativeDevice(r Ref) (*Device, bool) {
	d, ok := r.obj.(*Device)
	return d, ok
}

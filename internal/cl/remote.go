package cl

import (
	"encoding/binary"

	"ava/internal/guest"
	"ava/internal/marshal"
)

// RemoteClient is the Client facade over the generated OpenCL guest library
// (Stubs, stubs_gen.go): an application written against Client observes the
// 39-function API while every call is marshalled, batched, routed through the
// hypervisor, and executed by the API server. What is written here is only
// what the specification does not say: wrapping handles in Refs, the
// size-then-fill query idiom, flattening Ref and size lists to the byte
// buffers the spec declares, and mapping a cl_int to an error.
type RemoteClient struct{ s *Stubs }

// NewRemote wraps an attached guest library (its descriptor must be the
// OpenCL Spec).
func NewRemote(lib *guest.Lib) *RemoteClient { return &RemoteClient{s: NewStubs(lib)} }

// Lib exposes the underlying stub engine (stats, flush).
func (c *RemoteClient) Lib() *guest.Lib { return c.s.Lib() }

// With returns a client whose calls also carry opts (deadline, priority,
// overload retry, flush slack); the receiver is unchanged, so clients for
// different urgency classes can share one attached library. Options fold
// over the receiver's set; pass a guest.CallOptions literal to replace it
// wholesale.
func (c *RemoteClient) With(opts ...guest.CallOption) *RemoteClient {
	return &RemoteClient{s: c.s.With(opts...)}
}

func rref(h marshal.Handle) Ref { return Ref{h: h} }

// created wraps the handle a clCreate* call returned, or reports why there
// is none: the stack's error, else the call's errcode_ret.
func created(op string, h marshal.Handle, errcode int32, err error) (Ref, error) {
	if err != nil {
		return Ref{}, err
	}
	if errcode != Success {
		return Ref{}, clErr(op, errcode)
	}
	return rref(h), nil
}

func boolArg(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// status interprets a cl_int return value plus stack errors.
func status(op string, st int32, err error) error {
	if err != nil {
		return err
	}
	return clErr(op, st)
}

func handleBytes(refs []Ref) []byte {
	b := make([]byte, 8*len(refs))
	for i, r := range refs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(r.h))
	}
	return b
}

func refsFromBytes(b []byte) []Ref {
	out := make([]Ref, len(b)/8)
	for i := range out {
		out[i] = rref(marshal.Handle(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// ids is the two-phase id-list query real OpenCL applications make: ask how
// many, then fetch that many handles.
func ids(op string, query func(n uint32, dst []byte, count *uint32) (int32, error)) ([]Ref, error) {
	var n uint32
	st, err := query(0, nil, &n)
	if err := status(op, st, err); err != nil || n == 0 {
		return nil, err
	}
	buf := make([]byte, 8*n)
	st, err = query(n, buf, nil)
	if err := status(op, st, err); err != nil {
		return nil, err
	}
	return refsFromBytes(buf), nil
}

// info is the size-then-fill idiom of the clGet*Info family, whose stubs all
// have this one shape.
func info(op string, r Ref, param uint32,
	query func(h marshal.Handle, param uint32, size uint64, dst []byte, sizeRet *uint64) (int32, error)) ([]byte, error) {
	var size uint64
	st, err := query(r.h, param, 0, nil, &size)
	if err := status(op, st, err); err != nil || size == 0 {
		return nil, err
	}
	buf := make([]byte, size)
	st, err = query(r.h, param, size, buf, nil)
	if err := status(op, st, err); err != nil {
		return nil, err
	}
	return buf, nil
}

func (c *RemoteClient) PlatformIDs() ([]Ref, error) {
	return ids("clGetPlatformIDs", c.s.ClGetPlatformIDs)
}

func (c *RemoteClient) PlatformInfo(p Ref, param uint32) ([]byte, error) {
	return info("clGetPlatformInfo", p, param, c.s.ClGetPlatformInfo)
}

func (c *RemoteClient) DeviceIDs(p Ref, devType uint64) ([]Ref, error) {
	return ids("clGetDeviceIDs", func(n uint32, dst []byte, count *uint32) (int32, error) {
		return c.s.ClGetDeviceIDs(p.h, devType, n, dst, count)
	})
}

func (c *RemoteClient) DeviceInfo(d Ref, param uint32) ([]byte, error) {
	return info("clGetDeviceInfo", d, param, c.s.ClGetDeviceInfo)
}

func (c *RemoteClient) CreateContext(devs []Ref) (Ref, error) {
	var errcode int32
	h, err := c.s.ClCreateContext(uint32(len(devs)), handleBytes(devs), &errcode)
	return created("clCreateContext", h, errcode, err)
}

func (c *RemoteClient) ReleaseContext(r Ref) error {
	st, err := c.s.ClReleaseContext(r.h)
	return status("clReleaseContext", st, err)
}

func (c *RemoteClient) ContextInfo(r Ref, param uint32) ([]byte, error) {
	return info("clGetContextInfo", r, param, c.s.ClGetContextInfo)
}

func (c *RemoteClient) CreateQueue(cr, dr Ref, properties uint64) (Ref, error) {
	var errcode int32
	h, err := c.s.ClCreateCommandQueue(cr.h, dr.h, properties, &errcode)
	return created("clCreateCommandQueue", h, errcode, err)
}

func (c *RemoteClient) ReleaseQueue(r Ref) error {
	st, err := c.s.ClReleaseCommandQueue(r.h)
	return status("clReleaseCommandQueue", st, err)
}

func (c *RemoteClient) CreateBuffer(cr Ref, flags uint64, size uint64) (Ref, error) {
	var errcode int32
	h, err := c.s.ClCreateBuffer(cr.h, flags, size, &errcode)
	r, err := created("clCreateBuffer", h, errcode, err)
	if err == nil {
		// A cl_mem is the one object also passed by value, as a kernel
		// argument. Its wire form is made once, here, so SetKernelArgBuffer
		// has bytes to send that already live on the heap.
		r.wire = new([8]byte)
		binary.LittleEndian.PutUint64(r.wire[:], uint64(h))
	}
	return r, err
}

func (c *RemoteClient) ReleaseBuffer(r Ref) error {
	st, err := c.s.ClReleaseMemObject(r.h)
	return status("clReleaseMemObject", st, err)
}

func (c *RemoteClient) CreateProgram(cr Ref, source string) (Ref, error) {
	var errcode int32
	h, err := c.s.ClCreateProgramWithSource(cr.h, source, &errcode)
	return created("clCreateProgramWithSource", h, errcode, err)
}

func (c *RemoteClient) BuildProgram(r Ref, options string) error {
	st, err := c.s.ClBuildProgram(r.h, options)
	return status("clBuildProgram", st, err)
}

func (c *RemoteClient) ProgramBuildLog(r Ref) (string, error) {
	b, err := info("clGetProgramBuildInfo", r, ProgramBuildLog, c.s.ClGetProgramBuildInfo)
	return string(b), err
}

func (c *RemoteClient) ReleaseProgram(r Ref) error {
	st, err := c.s.ClReleaseProgram(r.h)
	return status("clReleaseProgram", st, err)
}

func (c *RemoteClient) CreateKernel(r Ref, name string) (Ref, error) {
	var errcode int32
	h, err := c.s.ClCreateKernel(r.h, name, &errcode)
	return created("clCreateKernel", h, errcode, err)
}

func (c *RemoteClient) ReleaseKernel(r Ref) error {
	st, err := c.s.ClReleaseKernel(r.h)
	return status("clReleaseKernel", st, err)
}

func (c *RemoteClient) SetKernelArgBuffer(kr Ref, index uint32, mr Ref) error {
	// A cl_mem argument travels as its 8-byte guest handle; the API
	// server translates it through the per-VM handle table.
	w := mr.wire
	if w == nil { // not a Ref CreateBuffer made: the server will refuse it
		w = new([8]byte)
		binary.LittleEndian.PutUint64(w[:], uint64(mr.h))
	}
	st, err := c.s.ClSetKernelArg(kr.h, index, 8, w[:])
	return status("clSetKernelArg", st, err)
}

func (c *RemoteClient) SetKernelArgScalar(kr Ref, index uint32, val []byte) error {
	st, err := c.s.ClSetKernelArg(kr.h, index, uint64(len(val)), val)
	return status("clSetKernelArg", st, err)
}

func sizesBytes(sz []uint64) []byte {
	b := make([]byte, 8*len(sz))
	for i, v := range sz {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

func (c *RemoteClient) EnqueueNDRange(qr, kr Ref, global, local []uint64) error {
	st, err := c.s.ClEnqueueNDRangeKernel(qr.h, kr.h, uint32(len(global)), sizesBytes(global), sizesBytes(local), 0, nil, nil)
	return status("clEnqueueNDRangeKernel", st, err)
}

func (c *RemoteClient) EnqueueNDRangeEvent(qr, kr Ref, global, local []uint64) (Ref, error) {
	var ev marshal.Handle
	st, err := c.s.ClEnqueueNDRangeKernel(qr.h, kr.h, uint32(len(global)), sizesBytes(global), sizesBytes(local), 0, nil, &ev)
	if err := status("clEnqueueNDRangeKernel", st, err); err != nil {
		return Ref{}, err
	}
	return rref(ev), nil
}

func (c *RemoteClient) EnqueueRead(qr, mr Ref, blocking bool, offset uint64, dst []byte) error {
	st, err := c.s.ClEnqueueReadBuffer(qr.h, mr.h, boolArg(blocking), offset, uint64(len(dst)), dst, 0, nil, nil)
	return status("clEnqueueReadBuffer", st, err)
}

func (c *RemoteClient) EnqueueWrite(qr, mr Ref, blocking bool, offset uint64, src []byte) error {
	st, err := c.s.ClEnqueueWriteBuffer(qr.h, mr.h, boolArg(blocking), offset, uint64(len(src)), src, 0, nil, nil)
	return status("clEnqueueWriteBuffer", st, err)
}

func (c *RemoteClient) EnqueueCopy(qr, sr, dr Ref, srcOff, dstOff, size uint64) error {
	st, err := c.s.ClEnqueueCopyBuffer(qr.h, sr.h, dr.h, srcOff, dstOff, size, 0, nil, nil)
	return status("clEnqueueCopyBuffer", st, err)
}

func (c *RemoteClient) EnqueueFill(qr, mr Ref, pattern []byte, offset, size uint64) error {
	st, err := c.s.ClEnqueueFillBuffer(qr.h, mr.h, pattern, uint64(len(pattern)), offset, size, 0, nil, nil)
	return status("clEnqueueFillBuffer", st, err)
}

func (c *RemoteClient) EnqueueMarker(qr Ref) (Ref, error) {
	var ev marshal.Handle
	st, err := c.s.ClEnqueueMarker(qr.h, &ev)
	if err := status("clEnqueueMarker", st, err); err != nil {
		return Ref{}, err
	}
	return rref(ev), nil
}

func (c *RemoteClient) EnqueueBarrier(qr Ref) error {
	st, err := c.s.ClEnqueueBarrier(qr.h)
	return status("clEnqueueBarrier", st, err)
}

func (c *RemoteClient) Finish(qr Ref) error {
	st, err := c.s.ClFinish(qr.h)
	return status("clFinish", st, err)
}

func (c *RemoteClient) Flush(qr Ref) error {
	st, err := c.s.ClFlush(qr.h)
	if err := status("clFlush", st, err); err != nil {
		return err
	}
	// clFlush guarantees submission: push the async batch out now.
	return c.s.Lib().Flush()
}

func (c *RemoteClient) WaitForEvents(events []Ref) error {
	st, err := c.s.ClWaitForEvents(uint32(len(events)), handleBytes(events))
	return status("clWaitForEvents", st, err)
}

func (c *RemoteClient) EventProfiling(er Ref, param uint32) (uint64, error) {
	buf := make([]byte, 8)
	st, err := c.s.ClGetEventProfilingInfo(er.h, param, 8, buf, nil)
	if err := status("clGetEventProfilingInfo", st, err); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf), nil
}

func (c *RemoteClient) ReleaseEvent(er Ref) error {
	st, err := c.s.ClReleaseEvent(er.h)
	return status("clReleaseEvent", st, err)
}

func (c *RemoteClient) DeferredError() error { return c.s.Lib().DeferredError() }

var _ Client = (*RemoteClient)(nil)

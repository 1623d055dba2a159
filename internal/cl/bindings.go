package cl

import (
	"encoding/binary"

	"ava/internal/marshal"
	"ava/internal/server"
)

// The OpenCL API server is generated (Register in stubs_gen.go, from
// opencl.ava): handle resolution and insertion, invalid-handle statuses, handle
// arrays in buffers, absent outs, the out-of-memory mapping and
// release-drops-the-handle all come from the specification. This file is what
// the specification cannot say: the silo as the generated Implementation
// (argument and status conversions, one line each) and three named hooks —
// Released, ClCreateContext's owner label, ClSetKernelArg's buffer-or-bytes
// argument.

// BindServer registers the generated OpenCL handlers against reg, executing
// on silo, and installs the silo's object-state Adapter, so every registry
// this binding built can be checkpointed, migrated and restored.
func BindServer(reg *server.Registry, silo *Silo) {
	Register(reg, binding{silo})
	reg.Adapter = MigrationAdapter{Silo: silo}
}

// Released implements the specification's `refcounted` for each object type:
// a release that was not the last leaves the guest's handle in place.
func (c *Context) Released() bool { return c.dead }
func (q *Queue) Released() bool   { return q.dead }
func (m *Mem) Released() bool     { return m.dead }
func (p *Program) Released() bool { return p.dead }
func (k *Kernel) Released() bool  { return k.dead }
func (e *Event) Released() bool   { return e.refs <= 0 }

// binding is the silo as the generated server's Implementation.
type binding struct{ s *Silo }

func (b binding) ClGetPlatformIDs(_ *server.Context, _ uint32, out []*Platform) (uint32, int32) {
	ps := b.s.GetPlatformIDs()
	copy(out, ps)
	return uint32(len(ps)), int32(Success)
}

func (b binding) ClGetPlatformInfo(_ *server.Context, p *Platform, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetPlatformInfo(p, name, dst)
	return n, int32(st)
}

func (b binding) ClGetDeviceIDs(_ *server.Context, p *Platform, devType uint64, _ uint32, out []*Device) (uint32, int32) {
	ds, st := b.s.GetDeviceIDs(p, devType)
	copy(out, ds)
	return uint32(len(ds)), int32(st)
}

func (b binding) ClGetDeviceInfo(_ *server.Context, d *Device, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetDeviceInfo(d, name, dst)
	return n, int32(st)
}

// ClCreateContext labels the context with its VM for device-time accounting
// (hook: the owner is the server context's, not an API argument).
func (b binding) ClCreateContext(ctx *server.Context, _ uint32, devs []*Device) (int32, *Context) {
	c, st := b.s.CreateContext(devs)
	if st == Success {
		c.SetOwner(ctx.Name)
	}
	return int32(st), c
}

func (b binding) ClRetainContext(_ *server.Context, c *Context) int32 {
	return int32(b.s.RetainContext(c))
}
func (b binding) ClReleaseContext(_ *server.Context, c *Context) int32 {
	return int32(b.s.ReleaseContext(c))
}

func (b binding) ClGetContextInfo(_ *server.Context, c *Context, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetContextInfo(c, name, dst)
	return n, int32(st)
}

func (b binding) ClCreateCommandQueue(_ *server.Context, c *Context, d *Device, props uint64) (int32, *Queue) {
	q, st := b.s.CreateCommandQueue(c, d, props)
	return int32(st), q
}

func (b binding) ClRetainCommandQueue(_ *server.Context, q *Queue) int32 {
	return int32(b.s.RetainCommandQueue(q))
}

func (b binding) ClReleaseCommandQueue(_ *server.Context, q *Queue) int32 {
	return int32(b.s.ReleaseCommandQueue(q))
}

func (b binding) ClCreateBuffer(_ *server.Context, c *Context, flags, size uint64) (int32, *Mem) {
	m, st := b.s.CreateBuffer(c, flags, size)
	return int32(st), m
}

func (b binding) ClRetainMemObject(_ *server.Context, m *Mem) int32 {
	return int32(b.s.RetainMemObject(m))
}
func (b binding) ClReleaseMemObject(_ *server.Context, m *Mem) int32 {
	return int32(b.s.ReleaseMemObject(m))
}

func (b binding) ClCreateProgramWithSource(_ *server.Context, c *Context, source string) (int32, *Program) {
	p, st := b.s.CreateProgramWithSource(c, source)
	return int32(st), p
}

func (b binding) ClBuildProgram(_ *server.Context, p *Program, options string) int32 {
	return int32(b.s.BuildProgram(p, options))
}

func (b binding) ClGetProgramBuildInfo(_ *server.Context, p *Program, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetProgramBuildInfo(p, name, dst)
	return n, int32(st)
}

func (b binding) ClRetainProgram(_ *server.Context, p *Program) int32 {
	return int32(b.s.RetainProgram(p))
}
func (b binding) ClReleaseProgram(_ *server.Context, p *Program) int32 {
	return int32(b.s.ReleaseProgram(p))
}

func (b binding) ClCreateKernel(_ *server.Context, p *Program, name string) (int32, *Kernel) {
	k, st := b.s.CreateKernel(p, name)
	return int32(st), k
}

func (b binding) ClRetainKernel(_ *server.Context, k *Kernel) int32 {
	return int32(b.s.RetainKernel(k))
}
func (b binding) ClReleaseKernel(_ *server.Context, k *Kernel) int32 {
	return int32(b.s.ReleaseKernel(k))
}

// ClSetKernelArg is the one argument whose meaning the specification cannot
// give (hook): arg_value is raw bytes on the wire, and only the kernel's
// declared argument kinds say whether they are a scalar or the 8-byte guest
// handle of a cl_mem, which is then translated through the VM's handle table
// like any other handle argument.
func (b binding) ClSetKernelArg(ctx *server.Context, k *Kernel, idx uint32, _ uint64, val []byte) int32 {
	if int(idx) >= len(k.def.Args) || k.def.Args[idx] != ArgBuffer {
		return int32(b.s.SetKernelArgBytes(k, idx, val))
	}
	if len(val) != 8 {
		return int32(ErrInvalidKernelArgs)
	}
	m, ok := server.Resolve[*Mem](ctx, marshal.Handle(binary.LittleEndian.Uint64(val)))
	if !ok {
		return int32(ErrInvalidMemObject)
	}
	return int32(b.s.SetKernelArgBuffer(k, idx, m))
}

func (b binding) ClGetKernelWorkGroupInfo(_ *server.Context, k *Kernel, d *Device, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetKernelWorkGroupInfo(k, d, name, dst)
	return n, int32(st)
}

// The queues are in-order, so a wait list has nothing left to wait for once
// the generated dispatcher has resolved (validated) it.

func (b binding) ClEnqueueNDRangeKernel(_ *server.Context, q *Queue, k *Kernel, _ uint32, global, local []byte, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueNDRangeKernel(q, k, decodeSizes(global), decodeSizes(local))
	return ev, int32(st)
}

func (b binding) ClEnqueueTask(_ *server.Context, q *Queue, k *Kernel, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueTask(q, k)
	return ev, int32(st)
}

func (b binding) ClEnqueueReadBuffer(_ *server.Context, q *Queue, m *Mem, _ uint32, off, _ uint64, dst []byte, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueReadBuffer(q, m, off, dst)
	return ev, int32(st)
}

func (b binding) ClEnqueueWriteBuffer(_ *server.Context, q *Queue, m *Mem, _ uint32, off, _ uint64, src []byte, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueWriteBuffer(q, m, off, src)
	return ev, int32(st)
}

func (b binding) ClEnqueueCopyBuffer(_ *server.Context, q *Queue, src, dst *Mem, srcOff, dstOff, size uint64, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueCopyBuffer(q, src, dst, srcOff, dstOff, size)
	return ev, int32(st)
}

func (b binding) ClEnqueueFillBuffer(_ *server.Context, q *Queue, m *Mem, pattern []byte, _, off, size uint64, _ uint32, _ []*Event) (*Event, int32) {
	ev, st := b.s.EnqueueFillBuffer(q, m, pattern, off, size)
	return ev, int32(st)
}

func (b binding) ClEnqueueMarker(_ *server.Context, q *Queue) (*Event, int32) {
	ev, st := b.s.EnqueueMarker(q)
	return ev, int32(st)
}

func (b binding) ClEnqueueBarrier(_ *server.Context, q *Queue) int32 {
	return int32(b.s.EnqueueBarrier(q))
}
func (b binding) ClFinish(_ *server.Context, q *Queue) int32 { return int32(b.s.Finish(q)) }
func (b binding) ClFlush(_ *server.Context, q *Queue) int32  { return int32(b.s.Flush(q)) }

func (b binding) ClWaitForEvents(_ *server.Context, _ uint32, evs []*Event) int32 {
	return int32(b.s.WaitForEvents(evs))
}

func (b binding) ClGetEventInfo(_ *server.Context, e *Event, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetEventInfo(e, name, dst)
	return n, int32(st)
}

func (b binding) ClGetEventProfilingInfo(_ *server.Context, e *Event, name uint32, _ uint64, dst []byte) (uint64, int32) {
	n, st := b.s.GetEventProfilingInfo(e, name, dst)
	return n, int32(st)
}

func (b binding) ClRetainEvent(_ *server.Context, e *Event) int32  { return int32(b.s.RetainEvent(e)) }
func (b binding) ClReleaseEvent(_ *server.Context, e *Event) int32 { return int32(b.s.ReleaseEvent(e)) }

// decodeSizes turns a size_t buffer into work sizes.
func decodeSizes(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

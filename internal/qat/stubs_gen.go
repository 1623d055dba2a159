// Code generated by cava from the "qat" API specification. DO NOT EDIT.
//
// This file contains the API-specific components of the AvA remoting
// stack: the typed guest library (Stubs) and the API server (Register, over
// the silo-facing Implementation interface).
package qat

import (
	"ava/internal/cava"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
)

// stubsSigs is the function table these stubs were generated from, in
// descriptor order: a function's index here is its id on the wire.
var stubsSigs = [...]string{
	"qatGetNumInstances(out uint*)int",
	"qatStartInstance(uint,out handle*)int",
	"qatStopInstance(handle)int",
	"qatSessionInit(handle,uint,uint,out handle*)int",
	"qatSessionTeardown(handle)int",
	"qatCompress(handle,uint,in void[],uint,out void[],out uint*)int",
	"qatDecompress(handle,uint,in void[],uint,out void[],out uint*)int",
	"qatHash(handle,uint,in void[],out void[])int",
}

// Stubs is the generated guest library for the "qat" API: one typed stub per
// virtualized function. A stub builds the call's argument vector on its own
// stack and hands it to the stub engine with the function's descriptor,
// which NewStubs resolved once.
type Stubs struct {
	lib  *guest.Lib
	fn   []*cava.FuncDesc // indexed like stubsSigs
	opts guest.CallOptions
}

// NewStubs wraps an attached guest library. It panics if the library speaks a
// different function table than the one these stubs were generated from:
// the stubs are stale (regenerate them) or the library is another API's.
func NewStubs(lib *guest.Lib) *Stubs {
	fn, err := lib.Descriptor().Resolve(stubsSigs[:])
	if err != nil {
		panic("qat: generated stubs do not match the library's descriptor: " + err.Error())
	}
	return &Stubs{lib: lib, fn: fn}
}

// Lib exposes the underlying stub engine.
func (c *Stubs) Lib() *guest.Lib { return c.lib }

// With returns a client whose calls also carry opts (deadline, priority,
// overload retry, flush slack); the receiver is unchanged, so clients for
// different urgency classes can share one attached library. Options fold
// over the receiver's set; pass a guest.CallOptions literal to replace it
// wholesale.
func (c *Stubs) With(opts ...guest.CallOption) *Stubs {
	d := *c
	d.opts = guest.ApplyCallOptions(d.opts, opts...)
	return &d
}

// QatGetNumInstances forwards qatGetNumInstances (synchronous).
func (c *Stubs) QatGetNumInstances(n *uint32) (int32, error) {
	var args [1]marshal.Value
	if n != nil {
		args[0] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[0], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[0]; n != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*n = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatStartInstance forwards qatStartInstance (synchronous).
func (c *Stubs) QatStartInstance(index uint32, inst *marshal.Handle) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.Uint(uint64(index))
	if inst != nil {
		args[1] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[1], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[1]; inst != nil && !elem.IsNull() {
		*inst = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatStopInstance forwards qatStopInstance (synchronous).
func (c *Stubs) QatStopInstance(inst marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(inst)
	ret, err := c.lib.Invoke(c.fn[2], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatSessionInit forwards qatSessionInit (synchronous).
func (c *Stubs) QatSessionInit(inst marshal.Handle, direction uint32, level uint32, sess *marshal.Handle) (int32, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(inst)
	args[1] = marshal.Uint(uint64(direction))
	args[2] = marshal.Uint(uint64(level))
	if sess != nil {
		args[3] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[3], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[3]; sess != nil && !elem.IsNull() {
		*sess = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatSessionTeardown forwards qatSessionTeardown (synchronous).
func (c *Stubs) QatSessionTeardown(sess marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(sess)
	ret, err := c.lib.Invoke(c.fn[4], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatCompress forwards qatCompress (synchronous).
func (c *Stubs) QatCompress(sess marshal.Handle, src_size uint64, src []byte, dst_cap uint64, dst []byte, produced *uint32) (int32, error) {
	var args [6]marshal.Value
	args[0] = marshal.HandleVal(sess)
	args[1] = marshal.Uint(src_size)
	args[2] = marshal.BytesVal(src)
	args[3] = marshal.Uint(dst_cap)
	args[4] = marshal.BytesVal(dst)
	if produced != nil {
		args[5] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[5], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[5]; produced != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*produced = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatDecompress forwards qatDecompress (synchronous).
func (c *Stubs) QatDecompress(sess marshal.Handle, src_size uint64, src []byte, dst_cap uint64, dst []byte, produced *uint32) (int32, error) {
	var args [6]marshal.Value
	args[0] = marshal.HandleVal(sess)
	args[1] = marshal.Uint(src_size)
	args[2] = marshal.BytesVal(src)
	args[3] = marshal.Uint(dst_cap)
	args[4] = marshal.BytesVal(dst)
	if produced != nil {
		args[5] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[6], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[5]; produced != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*produced = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// QatHash forwards qatHash (synchronous).
func (c *Stubs) QatHash(inst marshal.Handle, src_size uint64, src []byte, digest []byte) (int32, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(inst)
	args[1] = marshal.Uint(src_size)
	args[2] = marshal.BytesVal(src)
	args[3] = marshal.BytesVal(digest)
	ret, err := c.lib.Invoke(c.fn[7], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// Implementation is the silo surface the generated API server targets:
// the developer implements these against the vendor runtime, with handles
// already resolved to silo objects and results returned by value;
// everything else is generated.
type Implementation interface {
	QatGetNumInstances(ctx *server.Context) (n uint32, ret int32)
	QatStartInstance(ctx *server.Context, index uint32) (inst *Instance, ret int32)
	QatStopInstance(ctx *server.Context, inst *Instance) int32
	QatSessionInit(ctx *server.Context, inst *Instance, direction uint32, level uint32) (sess *Session, ret int32)
	QatSessionTeardown(ctx *server.Context, sess *Session) int32
	QatCompress(ctx *server.Context, sess *Session, src_size uint64, src []byte, dst_cap uint64, dst []byte) (produced uint32, ret int32)
	QatDecompress(ctx *server.Context, sess *Session, src_size uint64, src []byte, dst_cap uint64, dst []byte) (produced uint32, ret int32)
	QatHash(ctx *server.Context, inst *Instance, src_size uint64, src []byte, digest []byte) int32
}

// Register binds the generated dispatch handlers to reg, and the release
// that gives back, through each handle type's destructor, what an ended
// server incarnation still held.
func Register(reg *server.Registry, impl Implementation) {
	reg.MustRegister("qatGetNumInstances", func(v *server.Invocation) error {
		n, ret := impl.QatGetNumInstances(v.Ctx)
		if !v.IsNull(0) {
			v.SetOutUint(0, uint64(n))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatStartInstance", func(v *server.Invocation) error {
		inst, ret := impl.QatStartInstance(v.Ctx, uint32(v.Uint(0)))
		if inst != nil && !v.IsNull(1) {
			v.SetOutHandle(1, v.Ctx.Handles.Insert(inst))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatStopInstance", func(v *server.Invocation) error {
		inst, ok := server.Resolve[*Instance](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		ret := impl.QatStopInstance(v.Ctx, inst)
		if ret == 0 {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatSessionInit", func(v *server.Invocation) error {
		inst, ok := server.Resolve[*Instance](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		sess, ret := impl.QatSessionInit(v.Ctx, inst, uint32(v.Uint(1)), uint32(v.Uint(2)))
		if sess != nil && !v.IsNull(3) {
			v.SetOutHandle(3, v.Ctx.Handles.Insert(sess))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatSessionTeardown", func(v *server.Invocation) error {
		sess, ok := server.Resolve[*Session](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		ret := impl.QatSessionTeardown(v.Ctx, sess)
		if ret == 0 {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatCompress", func(v *server.Invocation) error {
		sess, ok := server.Resolve[*Session](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		produced, ret := impl.QatCompress(v.Ctx, sess, v.Uint(1), v.Bytes(2), v.Uint(3), v.Bytes(4))
		if !v.IsNull(5) {
			v.SetOutUint(5, uint64(produced))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatDecompress", func(v *server.Invocation) error {
		sess, ok := server.Resolve[*Session](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		produced, ret := impl.QatDecompress(v.Ctx, sess, v.Uint(1), v.Bytes(2), v.Uint(3), v.Bytes(4))
		if !v.IsNull(5) {
			v.SetOutUint(5, uint64(produced))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("qatHash", func(v *server.Invocation) error {
		inst, ok := server.Resolve[*Instance](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-2) // QAT_INVALID_PARAM
			return nil
		}
		ret := impl.QatHash(v.Ctx, inst, v.Uint(1), v.Bytes(2), v.Bytes(3))
		v.SetStatus(int64(ret))
		return nil
	})
	reg.SetRelease(func(ctx *server.Context, obj any) {
		switch obj := obj.(type) {
		case *Instance:
			// qatStopInstance destroys a qat_instance.
			impl.QatStopInstance(ctx, obj)
		case *Session:
			// qatSessionTeardown destroys a qat_session.
			impl.QatSessionTeardown(ctx, obj)
		}
	})
}

// Code generated by cava from the "toydev" API specification. DO NOT EDIT.
//
// This file contains the API-specific components of the AvA remoting
// stack: the typed guest library (Stubs) and the API server (Register, over
// the silo-facing Implementation interface).
package toydev

import (
	"ava/internal/cava"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
)

// stubsSigs is the function table these stubs were generated from, in
// descriptor order: a function's index here is its id on the wire.
var stubsSigs = [...]string{
	"openDevice(uint,out handle*)int",
	"deviceCount(out uint*)int",
	"store(handle,uint,in void[],uint)int",
	"load(handle,uint,out void[])int",
	"scale(handle,float)int",
	"closeDevice(handle)int",
}

// Stubs is the generated guest library for the "toydev" API: one typed stub per
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
		panic("toydev: generated stubs do not match the library's descriptor: " + err.Error())
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

// OpenDevice forwards openDevice (synchronous).
func (c *Stubs) OpenDevice(index uint32, d *marshal.Handle) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.Uint(uint64(index))
	if d != nil {
		args[1] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[0], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[1]; d != nil && !elem.IsNull() {
		*d = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// DeviceCount forwards deviceCount (synchronous).
func (c *Stubs) DeviceCount(n *uint32) (int32, error) {
	var args [1]marshal.Value
	if n != nil {
		args[0] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[1], &c.opts, args[:])
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

// Store forwards store (conditionally synchronous on blocking).
func (c *Stubs) Store(d marshal.Handle, size uint64, data []byte, blocking uint32) (int32, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(d)
	args[1] = marshal.Uint(size)
	args[2] = marshal.BytesVal(data)
	args[3] = marshal.Uint(uint64(blocking))
	ret, err := c.lib.Invoke(c.fn[2], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// Load forwards load (synchronous).
func (c *Stubs) Load(d marshal.Handle, size uint64, out []byte) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(d)
	args[1] = marshal.Uint(size)
	args[2] = marshal.BytesVal(out)
	ret, err := c.lib.Invoke(c.fn[3], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// Scale forwards scale (asynchronous).
func (c *Stubs) Scale(d marshal.Handle, factor float64) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.HandleVal(d)
	args[1] = marshal.Float(factor)
	ret, err := c.lib.Invoke(c.fn[4], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// CloseDevice forwards closeDevice (synchronous).
func (c *Stubs) CloseDevice(d marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(d)
	ret, err := c.lib.Invoke(c.fn[5], &c.opts, args[:])
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
	OpenDevice(ctx *server.Context, index uint32) (d any, ret int32)
	DeviceCount(ctx *server.Context) (n uint32, ret int32)
	Store(ctx *server.Context, d any, size uint64, data []byte, blocking uint32) int32
	Load(ctx *server.Context, d any, size uint64, out []byte) int32
	Scale(ctx *server.Context, d any, factor float64) int32
	CloseDevice(ctx *server.Context, d any) int32
}

// Register binds the generated dispatch handlers to reg, and the release
// that gives back, through each handle type's destructor, what an ended
// server incarnation still held.
func Register(reg *server.Registry, impl Implementation) {
	reg.MustRegister("openDevice", func(v *server.Invocation) error {
		d, ret := impl.OpenDevice(v.Ctx, uint32(v.Uint(0)))
		if d != nil && !v.IsNull(1) {
			v.SetOutHandle(1, v.Ctx.Handles.Insert(d))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("deviceCount", func(v *server.Invocation) error {
		n, ret := impl.DeviceCount(v.Ctx)
		if !v.IsNull(0) {
			v.SetOutUint(0, uint64(n))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("store", func(v *server.Invocation) error {
		d, ok := server.Resolve[any](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-1) // NO_DEVICE
			return nil
		}
		ret := impl.Store(v.Ctx, d, v.Uint(1), v.Bytes(2), uint32(v.Uint(3)))
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("load", func(v *server.Invocation) error {
		d, ok := server.Resolve[any](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-1) // NO_DEVICE
			return nil
		}
		ret := impl.Load(v.Ctx, d, v.Uint(1), v.Bytes(2))
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("scale", func(v *server.Invocation) error {
		d, ok := server.Resolve[any](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-1) // NO_DEVICE
			return nil
		}
		ret := impl.Scale(v.Ctx, d, v.Float(1))
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("closeDevice", func(v *server.Invocation) error {
		d, ok := server.Resolve[any](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-1) // NO_DEVICE
			return nil
		}
		ret := impl.CloseDevice(v.Ctx, d)
		if ret == 0 {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.SetRelease(func(ctx *server.Context, obj any) {
		switch obj := obj.(type) {
		default:
			// closeDevice destroys a dev.
			impl.CloseDevice(ctx, obj)
		}
	})
}

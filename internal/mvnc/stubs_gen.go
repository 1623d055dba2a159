// Code generated by cava from the "ncsdk" API specification. DO NOT EDIT.
//
// This file contains the API-specific components of the AvA remoting
// stack: the typed guest library (Stubs) and the API server (Register, over
// the silo-facing Implementation interface).
package mvnc

import (
	"ava/internal/cava"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
)

// stubsSigs is the function table these stubs were generated from, in
// descriptor order: a function's index here is its id on the wire.
var stubsSigs = [...]string{
	"mvncGetDeviceCount(out uint*)int",
	"mvncGetDeviceName(uint,uint,out void[])int",
	"mvncOpenDevice(uint,out handle*)int",
	"mvncCloseDevice(handle)int",
	"mvncAllocateGraph(handle,string,uint,in void[],out handle*)int",
	"mvncDeallocateGraph(handle)int",
	"mvncLoadTensor(handle,uint,in void[])int",
	"mvncGetResult(handle,uint,out void[])int",
	"mvncSetGraphOption(handle,uint,uint)int",
	"mvncGetGraphOption(handle,uint,out uint*)int",
}

// Stubs is the generated guest library for the "ncsdk" API: one typed stub per
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
		panic("mvnc: generated stubs do not match the library's descriptor: " + err.Error())
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

// MvncGetDeviceCount forwards mvncGetDeviceCount (synchronous).
func (c *Stubs) MvncGetDeviceCount(count *uint32) (int32, error) {
	var args [1]marshal.Value
	if count != nil {
		args[0] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[0], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[0]; count != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*count = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncGetDeviceName forwards mvncGetDeviceName (synchronous).
func (c *Stubs) MvncGetDeviceName(index uint32, name_size uint64, name []byte) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.Uint(uint64(index))
	args[1] = marshal.Uint(name_size)
	args[2] = marshal.BytesVal(name)
	ret, err := c.lib.Invoke(c.fn[1], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncOpenDevice forwards mvncOpenDevice (synchronous).
func (c *Stubs) MvncOpenDevice(index uint32, dev *marshal.Handle) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.Uint(uint64(index))
	if dev != nil {
		args[1] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[2], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[1]; dev != nil && !elem.IsNull() {
		*dev = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncCloseDevice forwards mvncCloseDevice (synchronous).
func (c *Stubs) MvncCloseDevice(dev marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(dev)
	ret, err := c.lib.Invoke(c.fn[3], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncAllocateGraph forwards mvncAllocateGraph (synchronous).
func (c *Stubs) MvncAllocateGraph(dev marshal.Handle, graph_name string, graph_size uint64, graph_data []byte, graph *marshal.Handle) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(dev)
	args[1] = marshal.Str(graph_name)
	args[2] = marshal.Uint(graph_size)
	args[3] = marshal.BytesVal(graph_data)
	if graph != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[4], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; graph != nil && !elem.IsNull() {
		*graph = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncDeallocateGraph forwards mvncDeallocateGraph (synchronous).
func (c *Stubs) MvncDeallocateGraph(graph marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(graph)
	ret, err := c.lib.Invoke(c.fn[5], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncLoadTensor forwards mvncLoadTensor (asynchronous).
func (c *Stubs) MvncLoadTensor(graph marshal.Handle, tensor_size uint64, tensor []byte) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(graph)
	args[1] = marshal.Uint(tensor_size)
	args[2] = marshal.BytesVal(tensor)
	ret, err := c.lib.Invoke(c.fn[6], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncGetResult forwards mvncGetResult (synchronous).
func (c *Stubs) MvncGetResult(graph marshal.Handle, result_size uint64, result []byte) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(graph)
	args[1] = marshal.Uint(result_size)
	args[2] = marshal.BytesVal(result)
	ret, err := c.lib.Invoke(c.fn[7], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncSetGraphOption forwards mvncSetGraphOption (synchronous).
func (c *Stubs) MvncSetGraphOption(graph marshal.Handle, option uint32, value uint32) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(graph)
	args[1] = marshal.Uint(uint64(option))
	args[2] = marshal.Uint(uint64(value))
	ret, err := c.lib.Invoke(c.fn[8], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// MvncGetGraphOption forwards mvncGetGraphOption (synchronous).
func (c *Stubs) MvncGetGraphOption(graph marshal.Handle, option uint32, value *uint32) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(graph)
	args[1] = marshal.Uint(uint64(option))
	if value != nil {
		args[2] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[9], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[2]; value != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*value = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// Implementation is the silo surface the generated API server targets:
// the developer implements these against the vendor runtime, with handles
// already resolved to silo objects and results returned by value;
// everything else is generated.
type Implementation interface {
	MvncGetDeviceCount(ctx *server.Context) (count uint32, ret int32)
	MvncGetDeviceName(ctx *server.Context, index uint32, name_size uint64, name []byte) int32
	MvncOpenDevice(ctx *server.Context, index uint32) (dev *Device, ret int32)
	MvncCloseDevice(ctx *server.Context, dev *Device) int32
	MvncAllocateGraph(ctx *server.Context, dev *Device, graph_name string, graph_size uint64, graph_data []byte) (graph *Graph, ret int32)
	MvncDeallocateGraph(ctx *server.Context, graph *Graph) int32
	MvncLoadTensor(ctx *server.Context, graph *Graph, tensor_size uint64, tensor []byte) int32
	MvncGetResult(ctx *server.Context, graph *Graph, result_size uint64, result []byte) int32
	MvncSetGraphOption(ctx *server.Context, graph *Graph, option uint32, value uint32) int32
	MvncGetGraphOption(ctx *server.Context, graph *Graph, option uint32) (value uint32, ret int32)
}

// Register binds the generated dispatch handlers to reg, and the release
// that gives back, through each handle type's destructor, what an ended
// server incarnation still held.
func Register(reg *server.Registry, impl Implementation) {
	reg.MustRegister("mvncGetDeviceCount", func(v *server.Invocation) error {
		count, ret := impl.MvncGetDeviceCount(v.Ctx)
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if !v.IsNull(0) {
			v.SetOutUint(0, uint64(count))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncGetDeviceName", func(v *server.Invocation) error {
		ret := impl.MvncGetDeviceName(v.Ctx, uint32(v.Uint(0)), v.Uint(1), v.Bytes(2))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncOpenDevice", func(v *server.Invocation) error {
		dev, ret := impl.MvncOpenDevice(v.Ctx, uint32(v.Uint(0)))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if dev != nil && !v.IsNull(1) {
			v.SetOutHandle(1, v.Ctx.Handles.Insert(dev))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncCloseDevice", func(v *server.Invocation) error {
		dev, ok := server.Resolve[*Device](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		ret := impl.MvncCloseDevice(v.Ctx, dev)
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if ret == 0 {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncAllocateGraph", func(v *server.Invocation) error {
		dev, ok := server.Resolve[*Device](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		graph, ret := impl.MvncAllocateGraph(v.Ctx, dev, v.Str(1), v.Uint(2), v.Bytes(3))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if graph != nil && !v.IsNull(4) {
			v.SetOutHandle(4, v.Ctx.Handles.Insert(graph))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncDeallocateGraph", func(v *server.Invocation) error {
		graph, ok := server.Resolve[*Graph](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		ret := impl.MvncDeallocateGraph(v.Ctx, graph)
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if ret == 0 {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncLoadTensor", func(v *server.Invocation) error {
		graph, ok := server.Resolve[*Graph](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		ret := impl.MvncLoadTensor(v.Ctx, graph, v.Uint(1), v.Bytes(2))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncGetResult", func(v *server.Invocation) error {
		graph, ok := server.Resolve[*Graph](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		ret := impl.MvncGetResult(v.Ctx, graph, v.Uint(1), v.Bytes(2))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncSetGraphOption", func(v *server.Invocation) error {
		graph, ok := server.Resolve[*Graph](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		ret := impl.MvncSetGraphOption(v.Ctx, graph, uint32(v.Uint(1)), uint32(v.Uint(2)))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("mvncGetGraphOption", func(v *server.Invocation) error {
		graph, ok := server.Resolve[*Graph](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-5) // MVNC_INVALID_PARAMETERS
			return nil
		}
		value, ret := impl.MvncGetGraphOption(v.Ctx, graph, uint32(v.Uint(1)))
		if ret == -3 { // MVNC_OUT_OF_MEMORY
			return v.OOM()
		}
		if !v.IsNull(2) {
			v.SetOutUint(2, uint64(value))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.SetRelease(func(ctx *server.Context, obj any) {
		switch obj := obj.(type) {
		case *Device:
			// mvncCloseDevice destroys a ncs_device.
			impl.MvncCloseDevice(ctx, obj)
		case *Graph:
			// mvncDeallocateGraph destroys a ncs_graph.
			impl.MvncDeallocateGraph(ctx, obj)
		}
	})
}

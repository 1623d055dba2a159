// Code generated by cava from the "opencl" API specification. DO NOT EDIT.
//
// This file contains the API-specific components of the AvA remoting
// stack: the typed guest library (Stubs) and the API server (Register, over
// the silo-facing Implementation interface).
package cl

import (
	"ava/internal/cava"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
)

// stubsSigs is the function table these stubs were generated from, in
// descriptor order: a function's index here is its id on the wire.
var stubsSigs = [...]string{
	"clGetPlatformIDs(uint,out handle[],out uint*)int",
	"clGetPlatformInfo(handle,uint,uint,out void[],out uint*)int",
	"clGetDeviceIDs(handle,uint,uint,out handle[],out uint*)int",
	"clGetDeviceInfo(handle,uint,uint,out void[],out uint*)int",
	"clCreateContext(uint,in handle[],out int*)handle",
	"clRetainContext(handle)int",
	"clReleaseContext(handle)int",
	"clCreateCommandQueue(handle,handle,uint,out int*)handle",
	"clRetainCommandQueue(handle)int",
	"clReleaseCommandQueue(handle)int",
	"clCreateBuffer(handle,uint,uint,out int*)handle",
	"clRetainMemObject(handle)int",
	"clReleaseMemObject(handle)int",
	"clCreateProgramWithSource(handle,string,out int*)handle",
	"clBuildProgram(handle,string)int",
	"clGetProgramBuildInfo(handle,uint,uint,out void[],out uint*)int",
	"clRetainProgram(handle)int",
	"clReleaseProgram(handle)int",
	"clCreateKernel(handle,string,out int*)handle",
	"clRetainKernel(handle)int",
	"clReleaseKernel(handle)int",
	"clSetKernelArg(handle,uint,uint,in void[])int",
	"clEnqueueNDRangeKernel(handle,handle,uint,in uint[],in uint[],uint,in handle[],out handle*)int",
	"clEnqueueTask(handle,handle,uint,in handle[],out handle*)int",
	"clEnqueueReadBuffer(handle,handle,uint,uint,uint,out void[],uint,in handle[],out handle*)int",
	"clEnqueueWriteBuffer(handle,handle,uint,uint,uint,in void[],uint,in handle[],out handle*)int",
	"clEnqueueCopyBuffer(handle,handle,handle,uint,uint,uint,uint,in handle[],out handle*)int",
	"clEnqueueFillBuffer(handle,handle,in void[],uint,uint,uint,uint,in handle[],out handle*)int",
	"clFinish(handle)int",
	"clFlush(handle)int",
	"clWaitForEvents(uint,in handle[])int",
	"clGetEventInfo(handle,uint,uint,out void[],out uint*)int",
	"clGetEventProfilingInfo(handle,uint,uint,out void[],out uint*)int",
	"clRetainEvent(handle)int",
	"clReleaseEvent(handle)int",
	"clEnqueueBarrier(handle)int",
	"clEnqueueMarker(handle,out handle*)int",
	"clGetKernelWorkGroupInfo(handle,handle,uint,uint,out void[],out uint*)int",
	"clGetContextInfo(handle,uint,uint,out void[],out uint*)int",
}

// Stubs is the generated guest library for the "opencl" API: one typed stub per
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
		panic("cl: generated stubs do not match the library's descriptor: " + err.Error())
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

// ClGetPlatformIDs forwards clGetPlatformIDs (synchronous).
func (c *Stubs) ClGetPlatformIDs(num_entries uint32, platforms []byte, num_platforms *uint32) (int32, error) {
	var args [3]marshal.Value
	args[0] = marshal.Uint(uint64(num_entries))
	args[1] = marshal.BytesVal(platforms)
	if num_platforms != nil {
		args[2] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[0], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[2]; num_platforms != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*num_platforms = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetPlatformInfo forwards clGetPlatformInfo (synchronous).
func (c *Stubs) ClGetPlatformInfo(platform marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(platform)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[1], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetDeviceIDs forwards clGetDeviceIDs (synchronous).
func (c *Stubs) ClGetDeviceIDs(platform marshal.Handle, device_type uint64, num_entries uint32, devices []byte, num_devices *uint32) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(platform)
	args[1] = marshal.Uint(device_type)
	args[2] = marshal.Uint(uint64(num_entries))
	args[3] = marshal.BytesVal(devices)
	if num_devices != nil {
		args[4] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[2], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; num_devices != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*num_devices = uint32(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetDeviceInfo forwards clGetDeviceInfo (synchronous).
func (c *Stubs) ClGetDeviceInfo(device marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(device)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[3], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClCreateContext forwards clCreateContext (synchronous).
func (c *Stubs) ClCreateContext(num_devices uint32, devices []byte, errcode_ret *int32) (marshal.Handle, error) {
	var args [3]marshal.Value
	args[0] = marshal.Uint(uint64(num_devices))
	args[1] = marshal.BytesVal(devices)
	if errcode_ret != nil {
		args[2] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[4], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[2]; errcode_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*errcode_ret = int32(asInt)
	}
	return ret.Handle(), nil
}

// ClRetainContext forwards clRetainContext (synchronous).
func (c *Stubs) ClRetainContext(context marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(context)
	ret, err := c.lib.Invoke(c.fn[5], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseContext forwards clReleaseContext (synchronous).
func (c *Stubs) ClReleaseContext(context marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(context)
	ret, err := c.lib.Invoke(c.fn[6], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClCreateCommandQueue forwards clCreateCommandQueue (synchronous).
func (c *Stubs) ClCreateCommandQueue(context marshal.Handle, device marshal.Handle, properties uint64, errcode_ret *int32) (marshal.Handle, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(context)
	args[1] = marshal.HandleVal(device)
	args[2] = marshal.Uint(properties)
	if errcode_ret != nil {
		args[3] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[7], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[3]; errcode_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*errcode_ret = int32(asInt)
	}
	return ret.Handle(), nil
}

// ClRetainCommandQueue forwards clRetainCommandQueue (synchronous).
func (c *Stubs) ClRetainCommandQueue(command_queue marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	ret, err := c.lib.Invoke(c.fn[8], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseCommandQueue forwards clReleaseCommandQueue (synchronous).
func (c *Stubs) ClReleaseCommandQueue(command_queue marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	ret, err := c.lib.Invoke(c.fn[9], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClCreateBuffer forwards clCreateBuffer (synchronous).
func (c *Stubs) ClCreateBuffer(context marshal.Handle, flags uint64, size uint64, errcode_ret *int32) (marshal.Handle, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(context)
	args[1] = marshal.Uint(flags)
	args[2] = marshal.Uint(size)
	if errcode_ret != nil {
		args[3] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[10], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[3]; errcode_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*errcode_ret = int32(asInt)
	}
	return ret.Handle(), nil
}

// ClRetainMemObject forwards clRetainMemObject (synchronous).
func (c *Stubs) ClRetainMemObject(buf marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(buf)
	ret, err := c.lib.Invoke(c.fn[11], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseMemObject forwards clReleaseMemObject (synchronous).
func (c *Stubs) ClReleaseMemObject(buf marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(buf)
	ret, err := c.lib.Invoke(c.fn[12], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClCreateProgramWithSource forwards clCreateProgramWithSource (synchronous).
func (c *Stubs) ClCreateProgramWithSource(context marshal.Handle, source string, errcode_ret *int32) (marshal.Handle, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(context)
	args[1] = marshal.Str(source)
	if errcode_ret != nil {
		args[2] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[13], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[2]; errcode_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*errcode_ret = int32(asInt)
	}
	return ret.Handle(), nil
}

// ClBuildProgram forwards clBuildProgram (synchronous).
func (c *Stubs) ClBuildProgram(program marshal.Handle, options string) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.HandleVal(program)
	args[1] = marshal.Str(options)
	ret, err := c.lib.Invoke(c.fn[14], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetProgramBuildInfo forwards clGetProgramBuildInfo (synchronous).
func (c *Stubs) ClGetProgramBuildInfo(program marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(program)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[15], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClRetainProgram forwards clRetainProgram (synchronous).
func (c *Stubs) ClRetainProgram(program marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(program)
	ret, err := c.lib.Invoke(c.fn[16], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseProgram forwards clReleaseProgram (synchronous).
func (c *Stubs) ClReleaseProgram(program marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(program)
	ret, err := c.lib.Invoke(c.fn[17], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClCreateKernel forwards clCreateKernel (synchronous).
func (c *Stubs) ClCreateKernel(program marshal.Handle, kernel_name string, errcode_ret *int32) (marshal.Handle, error) {
	var args [3]marshal.Value
	args[0] = marshal.HandleVal(program)
	args[1] = marshal.Str(kernel_name)
	if errcode_ret != nil {
		args[2] = marshal.Len(4)
	}
	ret, err := c.lib.Invoke(c.fn[18], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[2]; errcode_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*errcode_ret = int32(asInt)
	}
	return ret.Handle(), nil
}

// ClRetainKernel forwards clRetainKernel (synchronous).
func (c *Stubs) ClRetainKernel(kernel marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(kernel)
	ret, err := c.lib.Invoke(c.fn[19], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseKernel forwards clReleaseKernel (synchronous).
func (c *Stubs) ClReleaseKernel(kernel marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(kernel)
	ret, err := c.lib.Invoke(c.fn[20], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClSetKernelArg forwards clSetKernelArg (asynchronous).
func (c *Stubs) ClSetKernelArg(kernel marshal.Handle, arg_index uint32, arg_size uint64, arg_value []byte) (int32, error) {
	var args [4]marshal.Value
	args[0] = marshal.HandleVal(kernel)
	args[1] = marshal.Uint(uint64(arg_index))
	args[2] = marshal.Uint(arg_size)
	args[3] = marshal.BytesVal(arg_value)
	ret, err := c.lib.Invoke(c.fn[21], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueNDRangeKernel forwards clEnqueueNDRangeKernel (asynchronous).
func (c *Stubs) ClEnqueueNDRangeKernel(command_queue marshal.Handle, kernel marshal.Handle, work_dim uint32, global_work_size []byte, local_work_size []byte, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [8]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(kernel)
	args[2] = marshal.Uint(uint64(work_dim))
	args[3] = marshal.BytesVal(global_work_size)
	args[4] = marshal.BytesVal(local_work_size)
	args[5] = marshal.Uint(uint64(num_events_in_wait_list))
	args[6] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[7] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[22], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[7]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueTask forwards clEnqueueTask (asynchronous).
func (c *Stubs) ClEnqueueTask(command_queue marshal.Handle, kernel marshal.Handle, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(kernel)
	args[2] = marshal.Uint(uint64(num_events_in_wait_list))
	args[3] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[23], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueReadBuffer forwards clEnqueueReadBuffer (conditionally synchronous on blocking_read).
func (c *Stubs) ClEnqueueReadBuffer(command_queue marshal.Handle, buf marshal.Handle, blocking_read uint32, offset uint64, size uint64, ptr []byte, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [9]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(buf)
	args[2] = marshal.Uint(uint64(blocking_read))
	args[3] = marshal.Uint(offset)
	args[4] = marshal.Uint(size)
	args[5] = marshal.BytesVal(ptr)
	args[6] = marshal.Uint(uint64(num_events_in_wait_list))
	args[7] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[8] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[24], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[8]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueWriteBuffer forwards clEnqueueWriteBuffer (conditionally synchronous on blocking_write).
func (c *Stubs) ClEnqueueWriteBuffer(command_queue marshal.Handle, buf marshal.Handle, blocking_write uint32, offset uint64, size uint64, ptr []byte, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [9]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(buf)
	args[2] = marshal.Uint(uint64(blocking_write))
	args[3] = marshal.Uint(offset)
	args[4] = marshal.Uint(size)
	args[5] = marshal.BytesVal(ptr)
	args[6] = marshal.Uint(uint64(num_events_in_wait_list))
	args[7] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[8] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[25], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[8]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueCopyBuffer forwards clEnqueueCopyBuffer (asynchronous).
func (c *Stubs) ClEnqueueCopyBuffer(command_queue marshal.Handle, src_buffer marshal.Handle, dst_buffer marshal.Handle, src_offset uint64, dst_offset uint64, size uint64, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [9]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(src_buffer)
	args[2] = marshal.HandleVal(dst_buffer)
	args[3] = marshal.Uint(src_offset)
	args[4] = marshal.Uint(dst_offset)
	args[5] = marshal.Uint(size)
	args[6] = marshal.Uint(uint64(num_events_in_wait_list))
	args[7] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[8] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[26], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[8]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueFillBuffer forwards clEnqueueFillBuffer (asynchronous).
func (c *Stubs) ClEnqueueFillBuffer(command_queue marshal.Handle, buf marshal.Handle, pattern []byte, pattern_size uint64, offset uint64, size uint64, num_events_in_wait_list uint32, event_wait_list []byte, event *marshal.Handle) (int32, error) {
	var args [9]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	args[1] = marshal.HandleVal(buf)
	args[2] = marshal.BytesVal(pattern)
	args[3] = marshal.Uint(pattern_size)
	args[4] = marshal.Uint(offset)
	args[5] = marshal.Uint(size)
	args[6] = marshal.Uint(uint64(num_events_in_wait_list))
	args[7] = marshal.BytesVal(event_wait_list)
	if event != nil {
		args[8] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[27], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[8]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClFinish forwards clFinish (synchronous).
func (c *Stubs) ClFinish(command_queue marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	ret, err := c.lib.Invoke(c.fn[28], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClFlush forwards clFlush (asynchronous).
func (c *Stubs) ClFlush(command_queue marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	ret, err := c.lib.Invoke(c.fn[29], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClWaitForEvents forwards clWaitForEvents (synchronous).
func (c *Stubs) ClWaitForEvents(num_events uint32, event_list []byte) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.Uint(uint64(num_events))
	args[1] = marshal.BytesVal(event_list)
	ret, err := c.lib.Invoke(c.fn[30], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetEventInfo forwards clGetEventInfo (synchronous).
func (c *Stubs) ClGetEventInfo(event marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(event)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[31], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetEventProfilingInfo forwards clGetEventProfilingInfo (synchronous).
func (c *Stubs) ClGetEventProfilingInfo(event marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(event)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[32], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClRetainEvent forwards clRetainEvent (synchronous).
func (c *Stubs) ClRetainEvent(event marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(event)
	ret, err := c.lib.Invoke(c.fn[33], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClReleaseEvent forwards clReleaseEvent (synchronous).
func (c *Stubs) ClReleaseEvent(event marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(event)
	ret, err := c.lib.Invoke(c.fn[34], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueBarrier forwards clEnqueueBarrier (synchronous).
func (c *Stubs) ClEnqueueBarrier(command_queue marshal.Handle) (int32, error) {
	var args [1]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	ret, err := c.lib.Invoke(c.fn[35], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClEnqueueMarker forwards clEnqueueMarker (synchronous).
func (c *Stubs) ClEnqueueMarker(command_queue marshal.Handle, event *marshal.Handle) (int32, error) {
	var args [2]marshal.Value
	args[0] = marshal.HandleVal(command_queue)
	if event != nil {
		args[1] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[36], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[1]; event != nil && !elem.IsNull() {
		*event = elem.Handle()
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetKernelWorkGroupInfo forwards clGetKernelWorkGroupInfo (synchronous).
func (c *Stubs) ClGetKernelWorkGroupInfo(kernel marshal.Handle, device marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [6]marshal.Value
	args[0] = marshal.HandleVal(kernel)
	args[1] = marshal.HandleVal(device)
	args[2] = marshal.Uint(uint64(param_name))
	args[3] = marshal.Uint(param_value_size)
	args[4] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[5] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[37], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[5]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// ClGetContextInfo forwards clGetContextInfo (synchronous).
func (c *Stubs) ClGetContextInfo(context marshal.Handle, param_name uint32, param_value_size uint64, param_value []byte, param_value_size_ret *uint64) (int32, error) {
	var args [5]marshal.Value
	args[0] = marshal.HandleVal(context)
	args[1] = marshal.Uint(uint64(param_name))
	args[2] = marshal.Uint(param_value_size)
	args[3] = marshal.BytesVal(param_value)
	if param_value_size_ret != nil {
		args[4] = marshal.Len(8)
	}
	ret, err := c.lib.Invoke(c.fn[38], &c.opts, args[:])
	if err != nil {
		return 0, err
	}
	if elem := args[4]; param_value_size_ret != nil && !elem.IsNull() {
		asInt, _ := elem.AsInt()
		*param_value_size_ret = uint64(asInt)
	}
	status, _ := ret.AsInt()
	return int32(status), nil
}

// Implementation is the silo surface the generated API server targets:
// the developer implements these against the vendor runtime, with handles
// already resolved to silo objects and results returned by value;
// everything else is generated.
type Implementation interface {
	ClGetPlatformIDs(ctx *server.Context, num_entries uint32, platforms []*Platform) (num_platforms uint32, ret int32)
	ClGetPlatformInfo(ctx *server.Context, platform *Platform, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClGetDeviceIDs(ctx *server.Context, platform *Platform, device_type uint64, num_entries uint32, devices []*Device) (num_devices uint32, ret int32)
	ClGetDeviceInfo(ctx *server.Context, device *Device, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClCreateContext(ctx *server.Context, num_devices uint32, devices []*Device) (errcode_ret int32, ret *Context)
	ClRetainContext(ctx *server.Context, context *Context) int32
	ClReleaseContext(ctx *server.Context, context *Context) int32
	ClCreateCommandQueue(ctx *server.Context, context *Context, device *Device, properties uint64) (errcode_ret int32, ret *Queue)
	ClRetainCommandQueue(ctx *server.Context, command_queue *Queue) int32
	ClReleaseCommandQueue(ctx *server.Context, command_queue *Queue) int32
	ClCreateBuffer(ctx *server.Context, context *Context, flags uint64, size uint64) (errcode_ret int32, ret *Mem)
	ClRetainMemObject(ctx *server.Context, buf *Mem) int32
	ClReleaseMemObject(ctx *server.Context, buf *Mem) int32
	ClCreateProgramWithSource(ctx *server.Context, context *Context, source string) (errcode_ret int32, ret *Program)
	ClBuildProgram(ctx *server.Context, program *Program, options string) int32
	ClGetProgramBuildInfo(ctx *server.Context, program *Program, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClRetainProgram(ctx *server.Context, program *Program) int32
	ClReleaseProgram(ctx *server.Context, program *Program) int32
	ClCreateKernel(ctx *server.Context, program *Program, kernel_name string) (errcode_ret int32, ret *Kernel)
	ClRetainKernel(ctx *server.Context, kernel *Kernel) int32
	ClReleaseKernel(ctx *server.Context, kernel *Kernel) int32
	ClSetKernelArg(ctx *server.Context, kernel *Kernel, arg_index uint32, arg_size uint64, arg_value []byte) int32
	ClEnqueueNDRangeKernel(ctx *server.Context, command_queue *Queue, kernel *Kernel, work_dim uint32, global_work_size []byte, local_work_size []byte, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClEnqueueTask(ctx *server.Context, command_queue *Queue, kernel *Kernel, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClEnqueueReadBuffer(ctx *server.Context, command_queue *Queue, buf *Mem, blocking_read uint32, offset uint64, size uint64, ptr []byte, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClEnqueueWriteBuffer(ctx *server.Context, command_queue *Queue, buf *Mem, blocking_write uint32, offset uint64, size uint64, ptr []byte, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClEnqueueCopyBuffer(ctx *server.Context, command_queue *Queue, src_buffer *Mem, dst_buffer *Mem, src_offset uint64, dst_offset uint64, size uint64, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClEnqueueFillBuffer(ctx *server.Context, command_queue *Queue, buf *Mem, pattern []byte, pattern_size uint64, offset uint64, size uint64, num_events_in_wait_list uint32, event_wait_list []*Event) (event *Event, ret int32)
	ClFinish(ctx *server.Context, command_queue *Queue) int32
	ClFlush(ctx *server.Context, command_queue *Queue) int32
	ClWaitForEvents(ctx *server.Context, num_events uint32, event_list []*Event) int32
	ClGetEventInfo(ctx *server.Context, event *Event, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClGetEventProfilingInfo(ctx *server.Context, event *Event, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClRetainEvent(ctx *server.Context, event *Event) int32
	ClReleaseEvent(ctx *server.Context, event *Event) int32
	ClEnqueueBarrier(ctx *server.Context, command_queue *Queue) int32
	ClEnqueueMarker(ctx *server.Context, command_queue *Queue) (event *Event, ret int32)
	ClGetKernelWorkGroupInfo(ctx *server.Context, kernel *Kernel, device *Device, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
	ClGetContextInfo(ctx *server.Context, context *Context, param_name uint32, param_value_size uint64, param_value []byte) (param_value_size_ret uint64, ret int32)
}

// Register binds the generated dispatch handlers to reg, and the release
// that gives back, through each handle type's destructor, what an ended
// server incarnation still held.
func Register(reg *server.Registry, impl Implementation) {
	reg.MustRegister("clGetPlatformIDs", func(v *server.Invocation) error {
		platforms := make([]*Platform, len(v.Bytes(1))/8)
		num_platforms, ret := impl.ClGetPlatformIDs(v.Ctx, uint32(v.Uint(0)), platforms)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		server.PublishList(v.Ctx, v.Bytes(1), platforms, true)
		if !v.IsNull(2) {
			v.SetOutUint(2, uint64(num_platforms))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetPlatformInfo", func(v *server.Invocation) error {
		platform, ok := server.Resolve[*Platform](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-32) // CL_INVALID_PLATFORM
			return nil
		}
		param_value_size_ret, ret := impl.ClGetPlatformInfo(v.Ctx, platform, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetDeviceIDs", func(v *server.Invocation) error {
		platform, ok := server.Resolve[*Platform](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-32) // CL_INVALID_PLATFORM
			return nil
		}
		devices := make([]*Device, len(v.Bytes(3))/8)
		num_devices, ret := impl.ClGetDeviceIDs(v.Ctx, platform, v.Uint(1), uint32(v.Uint(2)), devices)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		server.PublishList(v.Ctx, v.Bytes(3), devices, true)
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(num_devices))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetDeviceInfo", func(v *server.Invocation) error {
		device, ok := server.Resolve[*Device](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-33) // CL_INVALID_DEVICE
			return nil
		}
		param_value_size_ret, ret := impl.ClGetDeviceInfo(v.Ctx, device, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clCreateContext", func(v *server.Invocation) error {
		devices, ok := server.ResolveList[*Device](v.Ctx, v.Bytes(1))
		if !ok {
			if !v.IsNull(2) {
				v.SetOutInt(2, -33) // CL_INVALID_DEVICE
			}
			v.SetRetHandle(0)
			return nil
		}
		errcode_ret, ret := impl.ClCreateContext(v.Ctx, uint32(v.Uint(0)), devices)
		if errcode_ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(2) {
			v.SetOutInt(2, int64(errcode_ret))
		}
		if ret != nil {
			v.SetRetHandle(v.Ctx.Handles.Insert(ret))
		} else {
			v.SetRetHandle(0)
		}
		return nil
	})
	reg.MustRegister("clRetainContext", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-34) // CL_INVALID_CONTEXT
			return nil
		}
		ret := impl.ClRetainContext(v.Ctx, context)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseContext", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-34) // CL_INVALID_CONTEXT
			return nil
		}
		ret := impl.ClReleaseContext(v.Ctx, context)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && context.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clCreateCommandQueue", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			if !v.IsNull(3) {
				v.SetOutInt(3, -34) // CL_INVALID_CONTEXT
			}
			v.SetRetHandle(0)
			return nil
		}
		device, ok := server.Resolve[*Device](v.Ctx, v.Handle(1))
		if !ok {
			if !v.IsNull(3) {
				v.SetOutInt(3, -33) // CL_INVALID_DEVICE
			}
			v.SetRetHandle(0)
			return nil
		}
		errcode_ret, ret := impl.ClCreateCommandQueue(v.Ctx, context, device, v.Uint(2))
		if errcode_ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(3) {
			v.SetOutInt(3, int64(errcode_ret))
		}
		if ret != nil {
			v.SetRetHandle(v.Ctx.Handles.Insert(ret))
		} else {
			v.SetRetHandle(0)
		}
		return nil
	})
	reg.MustRegister("clRetainCommandQueue", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		ret := impl.ClRetainCommandQueue(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseCommandQueue", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		ret := impl.ClReleaseCommandQueue(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && command_queue.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clCreateBuffer", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			if !v.IsNull(3) {
				v.SetOutInt(3, -34) // CL_INVALID_CONTEXT
			}
			v.SetRetHandle(0)
			return nil
		}
		errcode_ret, ret := impl.ClCreateBuffer(v.Ctx, context, v.Uint(1), v.Uint(2))
		if errcode_ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(3) {
			v.SetOutInt(3, int64(errcode_ret))
		}
		if ret != nil {
			v.SetRetHandle(v.Ctx.Handles.Insert(ret))
		} else {
			v.SetRetHandle(0)
		}
		return nil
	})
	reg.MustRegister("clRetainMemObject", func(v *server.Invocation) error {
		buf, ok := server.Resolve[*Mem](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		ret := impl.ClRetainMemObject(v.Ctx, buf)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseMemObject", func(v *server.Invocation) error {
		buf, ok := server.Resolve[*Mem](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		ret := impl.ClReleaseMemObject(v.Ctx, buf)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && buf.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clCreateProgramWithSource", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			if !v.IsNull(2) {
				v.SetOutInt(2, -34) // CL_INVALID_CONTEXT
			}
			v.SetRetHandle(0)
			return nil
		}
		errcode_ret, ret := impl.ClCreateProgramWithSource(v.Ctx, context, v.Str(1))
		if errcode_ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(2) {
			v.SetOutInt(2, int64(errcode_ret))
		}
		if ret != nil {
			v.SetRetHandle(v.Ctx.Handles.Insert(ret))
		} else {
			v.SetRetHandle(0)
		}
		return nil
	})
	reg.MustRegister("clBuildProgram", func(v *server.Invocation) error {
		program, ok := server.Resolve[*Program](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-44) // CL_INVALID_PROGRAM
			return nil
		}
		ret := impl.ClBuildProgram(v.Ctx, program, v.Str(1))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetProgramBuildInfo", func(v *server.Invocation) error {
		program, ok := server.Resolve[*Program](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-44) // CL_INVALID_PROGRAM
			return nil
		}
		param_value_size_ret, ret := impl.ClGetProgramBuildInfo(v.Ctx, program, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clRetainProgram", func(v *server.Invocation) error {
		program, ok := server.Resolve[*Program](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-44) // CL_INVALID_PROGRAM
			return nil
		}
		ret := impl.ClRetainProgram(v.Ctx, program)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseProgram", func(v *server.Invocation) error {
		program, ok := server.Resolve[*Program](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-44) // CL_INVALID_PROGRAM
			return nil
		}
		ret := impl.ClReleaseProgram(v.Ctx, program)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && program.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clCreateKernel", func(v *server.Invocation) error {
		program, ok := server.Resolve[*Program](v.Ctx, v.Handle(0))
		if !ok {
			if !v.IsNull(2) {
				v.SetOutInt(2, -44) // CL_INVALID_PROGRAM
			}
			v.SetRetHandle(0)
			return nil
		}
		errcode_ret, ret := impl.ClCreateKernel(v.Ctx, program, v.Str(1))
		if errcode_ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(2) {
			v.SetOutInt(2, int64(errcode_ret))
		}
		if ret != nil {
			v.SetRetHandle(v.Ctx.Handles.Insert(ret))
		} else {
			v.SetRetHandle(0)
		}
		return nil
	})
	reg.MustRegister("clRetainKernel", func(v *server.Invocation) error {
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		ret := impl.ClRetainKernel(v.Ctx, kernel)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseKernel", func(v *server.Invocation) error {
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		ret := impl.ClReleaseKernel(v.Ctx, kernel)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && kernel.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clSetKernelArg", func(v *server.Invocation) error {
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		ret := impl.ClSetKernelArg(v.Ctx, kernel, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueNDRangeKernel", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(6))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueNDRangeKernel(v.Ctx, command_queue, kernel, uint32(v.Uint(2)), v.Bytes(3), v.Bytes(4), uint32(v.Uint(5)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(7) {
			v.SetOutHandle(7, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueTask", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(3))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueTask(v.Ctx, command_queue, kernel, uint32(v.Uint(2)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(4) {
			v.SetOutHandle(4, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueReadBuffer", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		buf, ok := server.Resolve[*Mem](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(7))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueReadBuffer(v.Ctx, command_queue, buf, uint32(v.Uint(2)), v.Uint(3), v.Uint(4), v.Bytes(5), uint32(v.Uint(6)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(8) {
			v.SetOutHandle(8, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueWriteBuffer", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		buf, ok := server.Resolve[*Mem](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(7))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueWriteBuffer(v.Ctx, command_queue, buf, uint32(v.Uint(2)), v.Uint(3), v.Uint(4), v.Bytes(5), uint32(v.Uint(6)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(8) {
			v.SetOutHandle(8, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueCopyBuffer", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		src_buffer, ok := server.Resolve[*Mem](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		dst_buffer, ok := server.Resolve[*Mem](v.Ctx, v.Handle(2))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(7))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueCopyBuffer(v.Ctx, command_queue, src_buffer, dst_buffer, v.Uint(3), v.Uint(4), v.Uint(5), uint32(v.Uint(6)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(8) {
			v.SetOutHandle(8, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueFillBuffer", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		buf, ok := server.Resolve[*Mem](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-38) // CL_INVALID_MEM_OBJECT
			return nil
		}
		event_wait_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(7))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		event, ret := impl.ClEnqueueFillBuffer(v.Ctx, command_queue, buf, v.Bytes(2), v.Uint(3), v.Uint(4), v.Uint(5), uint32(v.Uint(6)), event_wait_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(8) {
			v.SetOutHandle(8, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clFinish", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		ret := impl.ClFinish(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clFlush", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		ret := impl.ClFlush(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clWaitForEvents", func(v *server.Invocation) error {
		event_list, ok := server.ResolveList[*Event](v.Ctx, v.Bytes(1))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		ret := impl.ClWaitForEvents(v.Ctx, uint32(v.Uint(0)), event_list)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetEventInfo", func(v *server.Invocation) error {
		event, ok := server.Resolve[*Event](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		param_value_size_ret, ret := impl.ClGetEventInfo(v.Ctx, event, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetEventProfilingInfo", func(v *server.Invocation) error {
		event, ok := server.Resolve[*Event](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		param_value_size_ret, ret := impl.ClGetEventProfilingInfo(v.Ctx, event, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clRetainEvent", func(v *server.Invocation) error {
		event, ok := server.Resolve[*Event](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		ret := impl.ClRetainEvent(v.Ctx, event)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clReleaseEvent", func(v *server.Invocation) error {
		event, ok := server.Resolve[*Event](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-58) // CL_INVALID_EVENT
			return nil
		}
		ret := impl.ClReleaseEvent(v.Ctx, event)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if ret == 0 && event.Released() {
			v.Ctx.Handles.Remove(v.Handle(0))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueBarrier", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		ret := impl.ClEnqueueBarrier(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clEnqueueMarker", func(v *server.Invocation) error {
		command_queue, ok := server.Resolve[*Queue](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-36) // CL_INVALID_COMMAND_QUEUE
			return nil
		}
		event, ret := impl.ClEnqueueMarker(v.Ctx, command_queue)
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if event != nil && !v.IsNull(1) {
			v.SetOutHandle(1, v.Ctx.Handles.Insert(event))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetKernelWorkGroupInfo", func(v *server.Invocation) error {
		kernel, ok := server.Resolve[*Kernel](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-48) // CL_INVALID_KERNEL
			return nil
		}
		device, ok := server.Resolve[*Device](v.Ctx, v.Handle(1))
		if !ok {
			v.SetStatus(-33) // CL_INVALID_DEVICE
			return nil
		}
		param_value_size_ret, ret := impl.ClGetKernelWorkGroupInfo(v.Ctx, kernel, device, uint32(v.Uint(2)), v.Uint(3), v.Bytes(4))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(5) {
			v.SetOutUint(5, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.MustRegister("clGetContextInfo", func(v *server.Invocation) error {
		context, ok := server.Resolve[*Context](v.Ctx, v.Handle(0))
		if !ok {
			v.SetStatus(-34) // CL_INVALID_CONTEXT
			return nil
		}
		param_value_size_ret, ret := impl.ClGetContextInfo(v.Ctx, context, uint32(v.Uint(1)), v.Uint(2), v.Bytes(3))
		if ret == -4 { // CL_MEM_OBJECT_ALLOCATION_FAILURE
			return v.OOM()
		}
		if !v.IsNull(4) {
			v.SetOutUint(4, uint64(param_value_size_ret))
		}
		v.SetStatus(int64(ret))
		return nil
	})
	reg.SetRelease(func(ctx *server.Context, obj any) {
		switch obj := obj.(type) {
		case *Context:
			// clReleaseContext destroys a cl_context.
			for ret := impl.ClReleaseContext(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseContext(ctx, obj) {
			}
		case *Queue:
			// clReleaseCommandQueue destroys a cl_command_queue.
			for ret := impl.ClReleaseCommandQueue(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseCommandQueue(ctx, obj) {
			}
		case *Mem:
			// clReleaseMemObject destroys a cl_mem.
			for ret := impl.ClReleaseMemObject(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseMemObject(ctx, obj) {
			}
		case *Program:
			// clReleaseProgram destroys a cl_program.
			for ret := impl.ClReleaseProgram(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseProgram(ctx, obj) {
			}
		case *Kernel:
			// clReleaseKernel destroys a cl_kernel.
			for ret := impl.ClReleaseKernel(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseKernel(ctx, obj) {
			}
		case *Event:
			// clReleaseEvent destroys a cl_event.
			for ret := impl.ClReleaseEvent(ctx, obj); ret == 0 && !obj.Released(); ret = impl.ClReleaseEvent(ctx, obj) {
			}
		}
	})
}

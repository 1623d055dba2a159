package cl

import (
	_ "embed"

	"ava/internal/cava"
)

// Spec is the CAvA specification for the 39 OpenCL functions the paper's
// prototype para-virtualizes (§5). The declarations are folded into the
// spec (the self-contained dialect of this reproduction); annotations
// follow Figure 4: conditional synchrony for blocking transfers, explicit
// `async;` for clSetKernelArg and the enqueue family (the paper's §4.2
// optimization), buffer sizes as expressions over sibling arguments,
// freshly allocated event output elements, resource estimates for the
// router, and track annotations driving record/replay migration.
//
// Deviations from Khronos cl.h, all documented in DESIGN.md: pointer-to-
// pointer parameters are flattened (contexts take a device list and length
// directly), clCreateBuffer omits host_ptr (use clEnqueueWriteBuffer), and
// info queries use cl_uint parameter names.
//
//go:embed opencl.ava
var Spec string

// Descriptor returns the compiled OpenCL stack descriptor. The result is
// freshly compiled per call; callers cache it.
func Descriptor() *cava.Descriptor { return cava.MustCompile(Spec) }

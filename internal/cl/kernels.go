package cl

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// ArgKind classifies a kernel argument.
type ArgKind uint8

// Kernel argument kinds.
const (
	// ArgBuffer is a __global pointer argument, bound to a cl_mem.
	ArgBuffer ArgKind = iota
	// ArgScalar is a by-value argument, bound to raw bytes.
	ArgScalar
)

// KernelEnv is what a running kernel sees: its bound arguments and the
// launch geometry. Buffer arguments alias simulated device memory.
type KernelEnv struct {
	Global []uint64
	Local  []uint64
	bufs   [][]byte
	raws   [][]byte
}

// Buf returns the device memory bound to buffer argument i.
func (e *KernelEnv) Buf(i int) []byte { return e.bufs[i] }

// U32 decodes scalar argument i as uint32.
func (e *KernelEnv) U32(i int) uint32 { return binary.LittleEndian.Uint32(e.raws[i]) }

// I32 decodes scalar argument i as int32.
func (e *KernelEnv) I32(i int) int32 { return int32(e.U32(i)) }

// U64 decodes scalar argument i as uint64.
func (e *KernelEnv) U64(i int) uint64 { return binary.LittleEndian.Uint64(e.raws[i]) }

// F32 decodes scalar argument i as float32.
func (e *KernelEnv) F32(i int) float32 { return math.Float32frombits(e.U32(i)) }

// KernelDef is one registered kernel: the silo's executable form of what
// OpenCL C source would compile to.
type KernelDef struct {
	Name string
	Args []ArgKind
	Run  func(env *KernelEnv)
}

// KernelRegistry maps kernel names to definitions. A silo builds programs
// by resolving source-named kernels here.
type KernelRegistry struct {
	mu sync.Mutex
	m  map[string]*KernelDef
}

// NewKernelRegistry returns an empty registry.
func NewKernelRegistry() *KernelRegistry {
	return &KernelRegistry{m: make(map[string]*KernelDef)}
}

// Register adds a kernel definition.
func (r *KernelRegistry) Register(def *KernelDef) error {
	if def == nil || def.Name == "" || def.Run == nil {
		return fmt.Errorf("cl: malformed kernel definition")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[def.Name]; dup {
		return fmt.Errorf("cl: kernel %q already registered", def.Name)
	}
	r.m[def.Name] = def
	return nil
}

// MustRegister is Register for statically known kernels.
func (r *KernelRegistry) MustRegister(def *KernelDef) {
	if err := r.Register(def); err != nil {
		panic(err)
	}
}

// Lookup returns a kernel definition or nil.
func (r *KernelRegistry) Lookup(name string) *KernelDef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[name]
}

// DefaultKernels is the process-global registry. The rodinia package and
// examples register their kernels here at init time.
var DefaultKernels = NewKernelRegistry()

func init() {
	// vector_add: out[i] = a[i] + b[i], the canonical smoke-test kernel.
	DefaultKernels.MustRegister(&KernelDef{
		Name: "vector_add",
		Args: []ArgKind{ArgBuffer, ArgBuffer, ArgBuffer, ArgScalar},
		Run: func(env *KernelEnv) {
			a, b, out := env.Buf(0), env.Buf(1), env.Buf(2)
			n := int(env.U32(3))
			for i := 0; i < n; i++ {
				av := math.Float32frombits(binary.LittleEndian.Uint32(a[4*i:]))
				bv := math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(av+bv))
			}
		},
	})
	// saxpy: y[i] = alpha*x[i] + y[i].
	DefaultKernels.MustRegister(&KernelDef{
		Name: "saxpy",
		Args: []ArgKind{ArgScalar, ArgBuffer, ArgBuffer, ArgScalar},
		Run: func(env *KernelEnv) {
			alpha := env.F32(0)
			x, y := env.Buf(1), env.Buf(2)
			n := int(env.U32(3))
			for i := 0; i < n; i++ {
				xv := math.Float32frombits(binary.LittleEndian.Uint32(x[4*i:]))
				yv := math.Float32frombits(binary.LittleEndian.Uint32(y[4*i:]))
				binary.LittleEndian.PutUint32(y[4*i:], math.Float32bits(alpha*xv+yv))
			}
		},
	})
}

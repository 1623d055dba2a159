// Package cl is the OpenCL-like accelerator silo.
//
// The paper evaluates AvA by para-virtualizing 39 OpenCL functions against
// an NVIDIA GTX 1080. No GPU exists here, so this package provides the
// closest synthetic equivalent: a complete software implementation of the
// same 39-function surface (platforms, devices, contexts, command queues,
// buffers, programs, kernels, events) executing real compute kernels on the
// devsim hardware model. AvA itself never looks inside this package — it
// interposes the public API only — which is precisely the property (§2)
// that makes API remoting the workable technique for silos.
//
// Simplifications relative to Khronos OpenCL, mirrored in the shipped
// specification and documented in DESIGN.md: kernels are Go functions
// registered in a KernelRegistry rather than compiled from OpenCL C (the
// program "source" names the registry entries); command queues are in-order
// and execute eagerly at enqueue time; clCreateBuffer takes no host_ptr.
package cl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ava/internal/clock"
	"ava/internal/devsim"
	"ava/internal/marshal"
	"ava/internal/server"
)

// Status is an OpenCL error code (cl_int).
type Status = int32

// OpenCL status codes, mirroring the spec constants (verified by test).
const (
	Success                  Status = 0
	ErrDeviceNotFound        Status = -1
	ErrMemObjectAllocFailure Status = -4
	ErrOutOfResources        Status = -5
	ErrBuildProgramFailure   Status = -11
	ErrInvalidValue          Status = -30
	ErrInvalidPlatform       Status = -32
	ErrInvalidDevice         Status = -33
	ErrInvalidContext        Status = -34
	ErrInvalidCommandQueue   Status = -36
	ErrInvalidMemObject      Status = -38
	ErrInvalidProgram        Status = -44
	ErrInvalidProgramExe     Status = -45
	ErrInvalidKernelName     Status = -46
	ErrInvalidKernel         Status = -48
	ErrInvalidArgIndex       Status = -49
	ErrInvalidKernelArgs     Status = -52
	ErrInvalidWorkDim        Status = -53
	ErrInvalidEvent          Status = -58
	ErrInvalidOperation      Status = -59
)

// Device/info constants mirrored from the spec.
const (
	DeviceTypeGPU uint64 = 4
	DeviceTypeAll uint64 = 0xFFFFFFFF

	PlatformName          uint32 = 0x0902
	PlatformVersion       uint32 = 0x0901
	DeviceName            uint32 = 0x102B
	DeviceType            uint32 = 0x1000
	DeviceMaxComputeUnits uint32 = 0x1002
	DeviceGlobalMemSize   uint32 = 0x101F
	DeviceMaxWorkGroup    uint32 = 0x1004
	ContextNumDevices     uint32 = 0x1083
	ContextRefCount       uint32 = 0x1080
	ProgramBuildStatus    uint32 = 0x1181
	ProgramBuildLog       uint32 = 0x1183
	KernelWorkGroupSize   uint32 = 0x11B0
	EventExecStatus       uint32 = 0x11D3
	ProfilingQueued       uint32 = 0x1280
	ProfilingStart        uint32 = 0x1282
	ProfilingEnd          uint32 = 0x1283

	BuildSuccess int64 = 0
	BuildError   int64 = -2
	Complete     int64 = 0
)

// Config describes a silo instance.
type Config struct {
	// Devices, default one 4 GiB GPU with 8 CUs.
	Devices []devsim.Config
	// Clock for event timestamps and devsim; nil = wall clock.
	Clock clock.Clock
}

// Platform is a cl_platform_id.
type Platform struct {
	silo    *Silo
	name    string
	version string
	devices []*Device
}

// Device is a cl_device_id.
type Device struct {
	platform *Platform
	sim      *devsim.Device
}

// Sim exposes the underlying simulated hardware (benchmarks and swap need it).
func (d *Device) Sim() *devsim.Device { return d.sim }

// Context is a cl_context.
type Context struct {
	silo    *Silo
	devices []*Device
	owner   string // accounting identity: VM/context name
	refs    int32
	dead    bool
}

// Queue is a cl_command_queue.
type Queue struct {
	ctx       *Context
	device    *Device
	profiling bool
	refs      int32
	dead      bool
}

// Mem is a cl_mem buffer object.
type Mem struct {
	ctx   *Context
	size  uint64
	flags uint64
	refs  int32
	dead  bool

	addr     devsim.Addr
	resident bool
	stash    []byte // host copy while evicted (swap) — nil when resident
	lastUse  int64  // monotonic use counter for LRU eviction

	// dirty tracks byte ranges written since the last delta watermark
	// (SnapshotBufferDelta); a fresh buffer starts clean. Guarded by the
	// silo mutex like the rest of the object.
	dirty dirtySet
}

// Size returns the buffer's size in bytes.
func (m *Mem) Size() uint64 { return m.size }

// Resident reports whether the buffer currently occupies device memory.
func (m *Mem) Resident() bool { return m.resident }

// Program is a cl_program.
type Program struct {
	ctx    *Context
	source string
	built  bool
	log    string
	refs   int32
	dead   bool
	names  []string // kernel names resolved at build
}

// Kernel is a cl_kernel.
type Kernel struct {
	program *Program
	def     *KernelDef
	args    []kernelArg
	refs    int32
	dead    bool
}

// Name returns the kernel's registry name.
func (k *Kernel) Name() string { return k.def.Name }

type kernelArg struct {
	set bool
	buf *Mem   // for ArgBuffer
	raw []byte // for ArgScalar (and the wire image of buffer handles)
}

// Event is a cl_event.
type Event struct {
	status int64
	queued time.Time
	start  time.Time
	end    time.Time
	refs   int32
}

// Silo is one OpenCL implementation instance over simulated hardware.
type Silo struct {
	mu       sync.Mutex
	platform *Platform
	clk      clock.Clock
	kernels  *KernelRegistry
	useTick  int64
	live     map[*Mem]struct{} // live buffers, for the swap manager
}

// NewSilo builds a silo from cfg.
func NewSilo(cfg Config) *Silo {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if len(cfg.Devices) == 0 {
		cfg.Devices = []devsim.Config{{
			Name:         "ava-sim-gpu0",
			MemoryBytes:  4 << 30,
			ComputeUnits: 8,
		}}
	}
	s := &Silo{clk: cfg.Clock, kernels: DefaultKernels, live: make(map[*Mem]struct{})}
	p := &Platform{silo: s, name: "AvA Software Platform", version: "OpenCL 1.2 AvA-sim"}
	for i := range cfg.Devices {
		dc := cfg.Devices[i]
		if dc.Clock == nil {
			dc.Clock = cfg.Clock
		}
		p.devices = append(p.devices, &Device{platform: p, sim: devsim.New(dc)})
	}
	s.platform = p
	return s
}

// Kernels returns the silo's kernel registry.
func (s *Silo) Kernels() *KernelRegistry { return s.kernels }

// --- Platform and device discovery ---

// GetPlatformIDs returns the available platforms.
func (s *Silo) GetPlatformIDs() []*Platform { return []*Platform{s.platform} }

// GetDeviceIDs returns the platform's devices matching devType.
func (s *Silo) GetDeviceIDs(p *Platform, devType uint64) ([]*Device, Status) {
	if p == nil {
		return nil, ErrInvalidPlatform
	}
	if devType != DeviceTypeGPU && devType != DeviceTypeAll {
		return nil, ErrDeviceNotFound
	}
	return p.devices, Success
}

// ClGetPlatformIDs implements clGetPlatformIDs over GetPlatformIDs.
func (s *Silo) ClGetPlatformIDs(_ *server.Context, _ uint32, out []*Platform) (uint32, Status) {
	ps := s.GetPlatformIDs()
	copy(out, ps)
	return uint32(len(ps)), Success
}

// ClGetDeviceIDs implements clGetDeviceIDs over GetDeviceIDs.
func (s *Silo) ClGetDeviceIDs(_ *server.Context, p *Platform, devType uint64, _ uint32, out []*Device) (uint32, Status) {
	ds, st := s.GetDeviceIDs(p, devType)
	copy(out, ds)
	return uint32(len(ds)), st
}

// infoBytes encodes an info query result and reports the full size.
func infoBytes(dst []byte, val []byte) (uint64, Status) {
	if dst != nil {
		copy(dst, val)
	}
	return uint64(len(val)), Success
}

func u64Bytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// ClGetPlatformInfo answers platform info queries.
func (s *Silo) ClGetPlatformInfo(_ *server.Context, p *Platform, param uint32, _ uint64, dst []byte) (uint64, Status) {
	if p == nil {
		return 0, ErrInvalidPlatform
	}
	switch param {
	case PlatformName:
		return infoBytes(dst, []byte(p.name))
	case PlatformVersion:
		return infoBytes(dst, []byte(p.version))
	}
	return 0, ErrInvalidValue
}

// ClGetDeviceInfo answers device info queries.
func (s *Silo) ClGetDeviceInfo(_ *server.Context, d *Device, param uint32, _ uint64, dst []byte) (uint64, Status) {
	if d == nil {
		return 0, ErrInvalidDevice
	}
	switch param {
	case DeviceName:
		return infoBytes(dst, []byte(d.sim.Name()))
	case DeviceType:
		return infoBytes(dst, u64Bytes(DeviceTypeGPU))
	case DeviceMaxComputeUnits:
		return infoBytes(dst, u64Bytes(uint64(8)))
	case DeviceGlobalMemSize:
		return infoBytes(dst, u64Bytes(d.sim.Capacity()))
	case DeviceMaxWorkGroup:
		return infoBytes(dst, u64Bytes(1024))
	}
	return 0, ErrInvalidValue
}

// --- Contexts ---

// ClCreateContext creates a context over devices. A context created for a
// server context is labelled with its VM for device-time accounting (hook:
// the owner is the server context's, not an API argument); a native one is
// "native".
func (s *Silo) ClCreateContext(ctx *server.Context, _ uint32, devices []*Device) (Status, *Context) {
	if len(devices) == 0 {
		return ErrInvalidValue, nil
	}
	for _, d := range devices {
		if d == nil {
			return ErrInvalidDevice, nil
		}
	}
	c := &Context{silo: s, devices: devices, owner: "native", refs: 1}
	if ctx != nil {
		c.owner = ctx.Name
	}
	return Success, c
}

// ClRetainContext increments the context refcount.
func (s *Silo) ClRetainContext(_ *server.Context, c *Context) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return ErrInvalidContext
	}
	c.refs++
	return Success
}

// ClReleaseContext decrements the refcount, destroying at zero.
func (s *Silo) ClReleaseContext(_ *server.Context, c *Context) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return ErrInvalidContext
	}
	c.refs--
	if c.refs <= 0 {
		c.dead = true
	}
	return Success
}

// ClGetContextInfo answers context info queries.
func (s *Silo) ClGetContextInfo(_ *server.Context, c *Context, param uint32, _ uint64, dst []byte) (uint64, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return 0, ErrInvalidContext
	}
	switch param {
	case ContextNumDevices:
		return infoBytes(dst, u64Bytes(uint64(len(c.devices))))
	case ContextRefCount:
		return infoBytes(dst, u64Bytes(uint64(c.refs)))
	}
	return 0, ErrInvalidValue
}

// --- Command queues ---

// ClCreateCommandQueue creates an in-order queue on device d.
func (s *Silo) ClCreateCommandQueue(_ *server.Context, c *Context, d *Device, properties uint64) (Status, *Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return ErrInvalidContext, nil
	}
	if d == nil {
		return ErrInvalidDevice, nil
	}
	return Success, &Queue{ctx: c, device: d, profiling: properties&2 != 0, refs: 1}
}

// ClRetainCommandQueue increments the queue refcount.
func (s *Silo) ClRetainCommandQueue(_ *server.Context, q *Queue) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q == nil || q.dead {
		return ErrInvalidCommandQueue
	}
	q.refs++
	return Success
}

// ClReleaseCommandQueue decrements the queue refcount.
func (s *Silo) ClReleaseCommandQueue(_ *server.Context, q *Queue) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q == nil || q.dead {
		return ErrInvalidCommandQueue
	}
	q.refs--
	if q.refs <= 0 {
		q.dead = true
	}
	return Success
}

// --- Buffers ---

// ClCreateBuffer allocates a device buffer.
func (s *Silo) ClCreateBuffer(_ *server.Context, c *Context, flags uint64, size uint64) (Status, *Mem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return ErrInvalidContext, nil
	}
	if size == 0 {
		return ErrInvalidValue, nil
	}
	addr, err := c.devices[0].sim.Alloc(size)
	if err != nil {
		if errors.Is(err, devsim.ErrOutOfMemory) {
			return ErrMemObjectAllocFailure, nil
		}
		return ErrOutOfResources, nil
	}
	s.useTick++
	m := &Mem{ctx: c, size: size, flags: flags, refs: 1, addr: addr, resident: true, lastUse: s.useTick}
	// A buffer no delta snapshot has seen must ship in full the first time
	// (the checkpoint consumer holds no base to compose onto).
	m.dirty.markAll()
	s.live[m] = struct{}{}
	return Success, m
}

// ClRetainMemObject increments the buffer refcount.
func (s *Silo) ClRetainMemObject(_ *server.Context, m *Mem) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil || m.dead {
		return ErrInvalidMemObject
	}
	m.refs++
	return Success
}

// ClReleaseMemObject decrements the refcount, freeing device memory at zero.
func (s *Silo) ClReleaseMemObject(_ *server.Context, m *Mem) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil || m.dead {
		return ErrInvalidMemObject
	}
	m.refs--
	if m.refs <= 0 {
		m.dead = true
		if m.resident {
			m.ctx.devices[0].sim.FreeMem(m.addr)
			m.resident = false
		}
		m.stash = nil
		delete(s.live, m)
	}
	return Success
}

// LiveBuffers returns all live buffer objects across contexts, for the
// swap manager's victim selection.
func (s *Silo) LiveBuffers() []*Mem {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Mem, 0, len(s.live))
	for m := range s.live {
		out = append(out, m)
	}
	return out
}

// RestoreBuffer overwrites a buffer's logical contents (migration restore).
func (s *Silo) RestoreBuffer(m *Mem, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil || m.dead {
		return fmt.Errorf("cl: restore of dead buffer")
	}
	if uint64(len(data)) != m.size {
		return fmt.Errorf("cl: restore of %d bytes into %d-byte buffer", len(data), m.size)
	}
	m.dirty.markAll()
	if !m.resident {
		copy(m.stash, data)
		return nil
	}
	return m.ctx.devices[0].sim.CopyIn(m.addr, 0, data)
}

// SnapshotBufferDelta drains the buffer's dirty-range tracking into a
// delta: the buffer's logical size plus copies of the byte ranges written
// since the previous call (the delta watermark), and clears the tracking.
// The delta is Full — one range covering everything — when full is set,
// tracking overflowed, or an untracked write (kernel launch, restore)
// touched the buffer. A clean buffer yields no ranges. The delta's Handle
// is left zero.
func (s *Silo) SnapshotBufferDelta(m *Mem, full bool) (d marshal.ObjectDelta, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil || m.dead {
		return d, fmt.Errorf("cl: snapshot of dead buffer")
	}
	d.BaseLen = m.size
	if full || m.dirty.all {
		var data []byte
		if !m.resident {
			data = append([]byte(nil), m.stash...)
		} else if data, err = m.ctx.devices[0].sim.Snapshot(m.addr); err != nil {
			return marshal.ObjectDelta{}, err
		}
		m.dirty.reset()
		d.Full, d.Ranges = true, []marshal.DeltaRange{{Off: 0, Bytes: data}}
		return d, nil
	}
	for _, r := range m.dirty.ranges {
		data := make([]byte, r.end-r.off)
		if !m.resident {
			copy(data, m.stash[r.off:r.end])
		} else if err = m.ctx.devices[0].sim.CopyOut(m.addr, r.off, data); err != nil {
			return marshal.ObjectDelta{}, err
		}
		d.Ranges = append(d.Ranges, marshal.DeltaRange{Off: r.off, Bytes: data})
	}
	m.dirty.reset()
	return d, nil
}

// touch updates LRU state; callers hold s.mu.
func (s *Silo) touch(m *Mem) {
	s.useTick++
	m.lastUse = s.useTick
}

// ensureResidentLocked restores an evicted buffer to device memory;
// callers hold s.mu.
func (s *Silo) ensureResidentLocked(m *Mem) Status {
	if m.resident {
		return Success
	}
	addr, err := m.ctx.devices[0].sim.Alloc(m.size)
	if err != nil {
		return ErrMemObjectAllocFailure
	}
	if err := m.ctx.devices[0].sim.CopyIn(addr, 0, m.stash); err != nil {
		m.ctx.devices[0].sim.FreeMem(addr)
		return ErrOutOfResources
	}
	m.addr = addr
	m.resident = true
	m.stash = nil
	return Success
}

// EvictBuffer moves a buffer's contents to host memory and frees its device
// allocation — the buffer-object-granularity swapping of §4.3.
func (s *Silo) EvictBuffer(m *Mem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil || m.dead {
		return fmt.Errorf("cl: evict of dead buffer")
	}
	if !m.resident {
		return nil
	}
	snap, err := m.ctx.devices[0].sim.Snapshot(m.addr)
	if err != nil {
		return err
	}
	if err := m.ctx.devices[0].sim.FreeMem(m.addr); err != nil {
		return err
	}
	m.stash = snap
	m.resident = false
	return nil
}

// LRUVictim returns the least-recently-used resident buffer among the
// given candidates, or nil.
func LRUVictim(candidates []*Mem) *Mem {
	var victim *Mem
	for _, m := range candidates {
		if m == nil || m.dead || !m.resident {
			continue
		}
		if victim == nil || m.lastUse < victim.lastUse {
			victim = m
		}
	}
	return victim
}

// --- Programs and kernels ---

// ClCreateProgramWithSource creates an unbuilt program. Source is a
// comma/whitespace separated list of kernel registry names (the silo's
// "programming language").
func (s *Silo) ClCreateProgramWithSource(_ *server.Context, c *Context, source string) (Status, *Program) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c == nil || c.dead {
		return ErrInvalidContext, nil
	}
	if source == "" {
		return ErrInvalidValue, nil
	}
	return Success, &Program{ctx: c, source: source, refs: 1}
}

// ClBuildProgram resolves the program's kernel names against the registry.
func (s *Silo) ClBuildProgram(_ *server.Context, p *Program, options string) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil || p.dead {
		return ErrInvalidProgram
	}
	fields := strings.FieldsFunc(p.source, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\n' || r == '\t' || r == ';'
	})
	var missing []string
	p.names = p.names[:0]
	for _, f := range fields {
		if f == "" {
			continue
		}
		if s.kernels.Lookup(f) == nil {
			missing = append(missing, f)
			continue
		}
		p.names = append(p.names, f)
	}
	if len(missing) > 0 || len(p.names) == 0 {
		p.built = false
		p.log = fmt.Sprintf("build error: unknown kernels %v", missing)
		return ErrBuildProgramFailure
	}
	p.built = true
	p.log = fmt.Sprintf("built %d kernels", len(p.names))
	return Success
}

// ClGetProgramBuildInfo answers build info queries.
func (s *Silo) ClGetProgramBuildInfo(_ *server.Context, p *Program, param uint32, _ uint64, dst []byte) (uint64, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil || p.dead {
		return 0, ErrInvalidProgram
	}
	switch param {
	case ProgramBuildStatus:
		st := BuildError
		if p.built {
			st = BuildSuccess
		}
		return infoBytes(dst, u64Bytes(uint64(st)))
	case ProgramBuildLog:
		return infoBytes(dst, []byte(p.log))
	}
	return 0, ErrInvalidValue
}

// ClRetainProgram increments the program refcount.
func (s *Silo) ClRetainProgram(_ *server.Context, p *Program) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil || p.dead {
		return ErrInvalidProgram
	}
	p.refs++
	return Success
}

// ClReleaseProgram decrements the program refcount.
func (s *Silo) ClReleaseProgram(_ *server.Context, p *Program) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil || p.dead {
		return ErrInvalidProgram
	}
	p.refs--
	if p.refs <= 0 {
		p.dead = true
	}
	return Success
}

// ClCreateKernel instantiates a kernel from a built program.
func (s *Silo) ClCreateKernel(_ *server.Context, p *Program, name string) (Status, *Kernel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil || p.dead {
		return ErrInvalidProgram, nil
	}
	if !p.built {
		return ErrInvalidProgramExe, nil
	}
	found := false
	for _, n := range p.names {
		if n == name {
			found = true
			break
		}
	}
	def := s.kernels.Lookup(name)
	if !found || def == nil {
		return ErrInvalidKernelName, nil
	}
	return Success, &Kernel{program: p, def: def, args: make([]kernelArg, len(def.Args)), refs: 1}
}

// ClRetainKernel increments the kernel refcount.
func (s *Silo) ClRetainKernel(_ *server.Context, k *Kernel) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == nil || k.dead {
		return ErrInvalidKernel
	}
	k.refs++
	return Success
}

// ClReleaseKernel decrements the kernel refcount.
func (s *Silo) ClReleaseKernel(_ *server.Context, k *Kernel) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == nil || k.dead {
		return ErrInvalidKernel
	}
	k.refs--
	if k.refs <= 0 {
		k.dead = true
	}
	return Success
}

// ClGetKernelWorkGroupInfo answers kernel work-group queries.
func (s *Silo) ClGetKernelWorkGroupInfo(_ *server.Context, k *Kernel, d *Device, param uint32, _ uint64, dst []byte) (uint64, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == nil || k.dead {
		return 0, ErrInvalidKernel
	}
	if param == KernelWorkGroupSize {
		return infoBytes(dst, u64Bytes(256))
	}
	return 0, ErrInvalidValue
}

// ClSetKernelArg is the one argument whose meaning the specification cannot
// give (hook): arg_value is raw bytes on the wire, and only the kernel's
// declared argument kinds say whether they are a scalar or the 8-byte guest
// handle of a cl_mem, which is then translated through the VM's handle table
// like any other handle argument.
func (s *Silo) ClSetKernelArg(ctx *server.Context, k *Kernel, idx uint32, _ uint64, val []byte) Status {
	if int(idx) >= len(k.def.Args) || k.def.Args[idx] != ArgBuffer {
		return s.SetKernelArgBytes(k, idx, val)
	}
	if len(val) != 8 {
		return ErrInvalidKernelArgs
	}
	m, ok := server.Resolve[*Mem](ctx, marshal.Handle(binary.LittleEndian.Uint64(val)))
	if !ok {
		return ErrInvalidMemObject
	}
	return s.SetKernelArgBuffer(k, idx, m)
}

// SetKernelArgBuffer binds a buffer object to a kernel argument (the typed
// entry the native client calls).
func (s *Silo) SetKernelArgBuffer(k *Kernel, index uint32, m *Mem) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == nil || k.dead {
		return ErrInvalidKernel
	}
	if int(index) >= len(k.args) {
		return ErrInvalidArgIndex
	}
	if k.def.Args[index] != ArgBuffer {
		return ErrInvalidKernelArgs
	}
	if m == nil || m.dead {
		return ErrInvalidMemObject
	}
	k.args[index] = kernelArg{set: true, buf: m}
	return Success
}

// SetKernelArgBytes binds a scalar argument's raw bytes (the typed entry the
// native client calls).
func (s *Silo) SetKernelArgBytes(k *Kernel, index uint32, val []byte) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == nil || k.dead {
		return ErrInvalidKernel
	}
	if int(index) >= len(k.args) {
		return ErrInvalidArgIndex
	}
	if k.def.Args[index] != ArgScalar {
		return ErrInvalidKernelArgs
	}
	k.args[index] = kernelArg{set: true, raw: append([]byte(nil), val...)}
	return Success
}

// --- Enqueue operations (eager in-order execution) ---

// The queues are in-order, so a wait list has nothing left to wait for once
// the generated dispatcher has resolved (validated) it.

func (s *Silo) newEvent(start, end time.Time) *Event {
	return &Event{status: Complete, queued: start, start: start, end: end, refs: 1}
}

func (s *Silo) checkQueue(q *Queue) Status {
	if q == nil || q.dead {
		return ErrInvalidCommandQueue
	}
	return Success
}

// ClEnqueueWriteBuffer copies host data into a buffer.
func (s *Silo) ClEnqueueWriteBuffer(_ *server.Context, q *Queue, m *Mem, _ uint32, offset, _ uint64, data []byte, _ uint32, _ []*Event) (*Event, Status) {
	s.mu.Lock()
	if st := s.checkQueue(q); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if m == nil || m.dead {
		s.mu.Unlock()
		return nil, ErrInvalidMemObject
	}
	if st := s.ensureResidentLocked(m); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	s.touch(m)
	m.dirty.mark(offset, uint64(len(data)), m.size)
	sim := m.ctx.devices[0].sim // buffer memory lives on its owning device
	addr := m.addr
	s.mu.Unlock()

	t0 := s.clk.Now()
	if err := sim.CopyIn(addr, offset, data); err != nil {
		return nil, ErrInvalidValue
	}
	return s.newEvent(t0, s.clk.Now()), Success
}

// ClEnqueueReadBuffer copies a buffer into host memory.
func (s *Silo) ClEnqueueReadBuffer(_ *server.Context, q *Queue, m *Mem, _ uint32, offset, _ uint64, dst []byte, _ uint32, _ []*Event) (*Event, Status) {
	s.mu.Lock()
	if st := s.checkQueue(q); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if m == nil || m.dead {
		s.mu.Unlock()
		return nil, ErrInvalidMemObject
	}
	if st := s.ensureResidentLocked(m); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	s.touch(m)
	sim := m.ctx.devices[0].sim
	addr := m.addr
	s.mu.Unlock()

	t0 := s.clk.Now()
	if err := sim.CopyOut(addr, offset, dst); err != nil {
		return nil, ErrInvalidValue
	}
	return s.newEvent(t0, s.clk.Now()), Success
}

// ClEnqueueCopyBuffer copies between buffers on the device.
func (s *Silo) ClEnqueueCopyBuffer(_ *server.Context, q *Queue, src, dst *Mem, srcOff, dstOff, size uint64, _ uint32, _ []*Event) (*Event, Status) {
	s.mu.Lock()
	if st := s.checkQueue(q); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if src == nil || src.dead || dst == nil || dst.dead {
		s.mu.Unlock()
		return nil, ErrInvalidMemObject
	}
	if st := s.ensureResidentLocked(src); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if st := s.ensureResidentLocked(dst); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	s.touch(src)
	s.touch(dst)
	dst.dirty.mark(dstOff, size, dst.size)
	sim := src.ctx.devices[0].sim // same-context copy on the owning device
	sa, da := src.addr, dst.addr
	s.mu.Unlock()

	t0 := s.clk.Now()
	if err := sim.CopyDevice(da, dstOff, sa, srcOff, size); err != nil {
		return nil, ErrInvalidValue
	}
	return s.newEvent(t0, s.clk.Now()), Success
}

// ClEnqueueFillBuffer fills a buffer range with a repeating pattern.
func (s *Silo) ClEnqueueFillBuffer(_ *server.Context, q *Queue, m *Mem, pattern []byte, _, offset, size uint64, _ uint32, _ []*Event) (*Event, Status) {
	if len(pattern) == 0 || size%uint64(len(pattern)) != 0 {
		return nil, ErrInvalidValue
	}
	s.mu.Lock()
	if st := s.checkQueue(q); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if m == nil || m.dead {
		s.mu.Unlock()
		return nil, ErrInvalidMemObject
	}
	if st := s.ensureResidentLocked(m); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	s.touch(m)
	m.dirty.mark(offset, size, m.size)
	sim := m.ctx.devices[0].sim
	addr := m.addr
	s.mu.Unlock()

	t0 := s.clk.Now()
	fill := make([]byte, size)
	for off := uint64(0); off < size; off += uint64(len(pattern)) {
		copy(fill[off:], pattern)
	}
	if err := sim.CopyIn(addr, offset, fill); err != nil {
		return nil, ErrInvalidValue
	}
	return s.newEvent(t0, s.clk.Now()), Success
}

// ClEnqueueNDRangeKernel launches a kernel over the size_t work sizes.
func (s *Silo) ClEnqueueNDRangeKernel(_ *server.Context, q *Queue, k *Kernel, _ uint32, global, local []byte, _ uint32, _ []*Event) (*Event, Status) {
	return s.EnqueueNDRangeKernel(q, k, decodeSizes(global), decodeSizes(local))
}

// decodeSizes turns a size_t buffer into work sizes.
func decodeSizes(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// EnqueueNDRangeKernel launches a kernel over the global work size (the
// typed entry the native client calls).
func (s *Silo) EnqueueNDRangeKernel(q *Queue, k *Kernel, global, local []uint64) (*Event, Status) {
	if len(global) == 0 || len(global) > 3 {
		return nil, ErrInvalidWorkDim
	}
	s.mu.Lock()
	if st := s.checkQueue(q); st != Success {
		s.mu.Unlock()
		return nil, st
	}
	if k == nil || k.dead {
		s.mu.Unlock()
		return nil, ErrInvalidKernel
	}
	// All declared arguments must be bound, buffers resident.
	env := &KernelEnv{
		Global: append([]uint64(nil), global...),
		Local:  append([]uint64(nil), local...),
		bufs:   make([][]byte, len(k.args)),
		raws:   make([][]byte, len(k.args)),
	}
	for i, a := range k.args {
		if !a.set {
			s.mu.Unlock()
			return nil, ErrInvalidKernelArgs
		}
		if a.buf != nil {
			if a.buf.dead {
				s.mu.Unlock()
				return nil, ErrInvalidMemObject
			}
			if st := s.ensureResidentLocked(a.buf); st != Success {
				s.mu.Unlock()
				return nil, st
			}
			s.touch(a.buf)
			// A kernel receives the raw device memory slice, so the silo
			// cannot see which bytes it writes: the whole buffer turns
			// dirty for delta-checkpoint purposes.
			a.buf.dirty.markAll()
			// Kernels execute on the queue's device but address buffer
			// memory on its owning device (shared-context memory model).
			memBytes, err := a.buf.ctx.devices[0].sim.Mem(a.buf.addr)
			if err != nil {
				s.mu.Unlock()
				return nil, ErrInvalidMemObject
			}
			env.bufs[i] = memBytes
		} else {
			env.raws[i] = a.raw
		}
	}
	owner := q.ctx.owner
	def := k.def
	sim := q.device.sim
	s.mu.Unlock()

	t0 := s.clk.Now()
	if err := sim.RunKernel(owner, func() { def.Run(env) }); err != nil {
		return nil, ErrOutOfResources
	}
	return s.newEvent(t0, s.clk.Now()), Success
}

// ClEnqueueTask launches a kernel with a single work item.
func (s *Silo) ClEnqueueTask(_ *server.Context, q *Queue, k *Kernel, _ uint32, _ []*Event) (*Event, Status) {
	return s.EnqueueNDRangeKernel(q, k, []uint64{1}, []uint64{1})
}

// ClEnqueueMarker records a marker event.
func (s *Silo) ClEnqueueMarker(_ *server.Context, q *Queue) (*Event, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.checkQueue(q); st != Success {
		return nil, st
	}
	now := s.clk.Now()
	return s.newEvent(now, now), Success
}

// ClEnqueueBarrier orders preceding commands; eager execution makes it a
// completed no-op.
func (s *Silo) ClEnqueueBarrier(_ *server.Context, q *Queue) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkQueue(q)
}

// ClFinish blocks until the queue drains; eager execution makes this a no-op
// barrier (the synchronization semantics matter to the remoting layer, not
// the silo).
func (s *Silo) ClFinish(_ *server.Context, q *Queue) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkQueue(q)
}

// ClFlush submits pending commands; a no-op under eager execution.
func (s *Silo) ClFlush(_ *server.Context, q *Queue) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkQueue(q)
}

// ClWaitForEvents blocks until the listed events complete.
func (s *Silo) ClWaitForEvents(_ *server.Context, _ uint32, events []*Event) Status {
	for _, e := range events {
		if e == nil {
			return ErrInvalidEvent
		}
	}
	return Success
}

// ClGetEventInfo answers event info queries.
func (s *Silo) ClGetEventInfo(_ *server.Context, e *Event, param uint32, _ uint64, dst []byte) (uint64, Status) {
	if e == nil {
		return 0, ErrInvalidEvent
	}
	if param == EventExecStatus {
		return infoBytes(dst, u64Bytes(uint64(e.status)))
	}
	return 0, ErrInvalidValue
}

// ClGetEventProfilingInfo answers profiling queries in nanoseconds.
func (s *Silo) ClGetEventProfilingInfo(_ *server.Context, e *Event, param uint32, _ uint64, dst []byte) (uint64, Status) {
	if e == nil {
		return 0, ErrInvalidEvent
	}
	switch param {
	case ProfilingQueued:
		return infoBytes(dst, u64Bytes(uint64(e.queued.UnixNano())))
	case ProfilingStart:
		return infoBytes(dst, u64Bytes(uint64(e.start.UnixNano())))
	case ProfilingEnd:
		return infoBytes(dst, u64Bytes(uint64(e.end.UnixNano())))
	}
	return 0, ErrInvalidValue
}

// ClRetainEvent increments the event refcount.
func (s *Silo) ClRetainEvent(_ *server.Context, e *Event) Status {
	if e == nil {
		return ErrInvalidEvent
	}
	s.mu.Lock()
	e.refs++
	s.mu.Unlock()
	return Success
}

// ClReleaseEvent decrements the event refcount.
func (s *Silo) ClReleaseEvent(_ *server.Context, e *Event) Status {
	if e == nil {
		return ErrInvalidEvent
	}
	s.mu.Lock()
	e.refs--
	s.mu.Unlock()
	return Success
}

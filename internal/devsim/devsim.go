// Package devsim simulates the accelerator hardware underneath a silo.
//
// The paper's prototype ran on an NVIDIA GTX 1080 and an Intel Movidius NCS.
// Neither is available here, so devsim provides the closest synthetic
// equivalent: a device with a fixed-capacity memory, a DMA engine that
// actually copies bytes (and can additionally model transfer time), and a
// pool of compute units that execute kernels as real Go functions while
// accounting busy time per client. AvA never sees any of this directly — it
// interposes the silo's public API — but the experiments need a device whose
// in-silo work is real so that API-boundary overhead is measured against
// genuine computation.
package devsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ava/internal/clock"
)

// Addr is a simulated device memory address. Zero is never a valid
// allocation address.
type Addr uint64

// Errors returned by the device.
var (
	ErrOutOfMemory = errors.New("devsim: out of device memory")
	ErrBadAddr     = errors.New("devsim: no allocation at address")
	ErrBounds      = errors.New("devsim: access outside allocation")
	ErrClosed      = errors.New("devsim: device closed")
)

// Config describes a simulated device.
type Config struct {
	// Name identifies the device in errors and stats.
	Name string
	// MemoryBytes is the device memory capacity.
	MemoryBytes uint64
	// ComputeUnits bounds concurrent kernel executions. Zero means 1.
	ComputeUnits int
	// DMABandwidth, if positive, models PCIe transfer time as
	// latency + bytes/bandwidth (bytes per second) charged to the clock.
	DMABandwidth float64
	// DMALatency is the fixed per-transfer setup cost when modeling time.
	DMALatency time.Duration
	// KernelOverhead is a fixed launch cost charged per kernel when
	// modeling time (the hardware queue/dispatch cost).
	KernelOverhead time.Duration
	// Clock supplies time; nil selects the wall clock.
	Clock clock.Clock
}

// Stats are the device's profiling counters, analogous to the profiling
// interface the paper suggests the hypervisor can use for precise
// measurements (§4.3).
type Stats struct {
	Allocs        uint64
	Frees         uint64
	BytesH2D      uint64
	BytesD2H      uint64
	DMATransfers  uint64
	KernelsRun    uint64
	KernelTime    time.Duration // summed wall/virtual time inside kernels
	TransferTime  time.Duration // summed modeled DMA time
	PeakMemUsed   uint64
	CurrentMemUse uint64
}

type allocation struct {
	addr Addr
	data []byte
}

// Device is a simulated accelerator.
type Device struct {
	cfg Config
	clk clock.Clock

	mu     sync.Mutex
	closed bool
	next   Addr
	allocs map[Addr]*allocation
	used   uint64
	stats  Stats

	cus chan struct{} // compute-unit tokens

	busyMu sync.Mutex
	busy   map[string]time.Duration // per-client kernel busy time
}

// New creates a device from cfg.
func New(cfg Config) *Device {
	if cfg.ComputeUnits <= 0 {
		cfg.ComputeUnits = 1
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	d := &Device{
		cfg:    cfg,
		clk:    clk,
		next:   4096, // keep a null page, like real address spaces
		allocs: make(map[Addr]*allocation),
		cus:    make(chan struct{}, cfg.ComputeUnits),
		busy:   make(map[string]time.Duration),
	}
	for i := 0; i < cfg.ComputeUnits; i++ {
		d.cus <- struct{}{}
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Capacity returns the device memory capacity in bytes.
func (d *Device) Capacity() uint64 { return d.cfg.MemoryBytes }

// Used returns the bytes of device memory currently allocated.
func (d *Device) Used() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Close releases the device; further operations fail with ErrClosed.
func (d *Device) Close() {
	d.mu.Lock()
	d.closed = true
	d.allocs = make(map[Addr]*allocation)
	d.used = 0
	d.mu.Unlock()
}

// Alloc reserves size bytes of device memory.
func (d *Device) Alloc(size uint64) (Addr, error) {
	if size == 0 {
		size = 1 // zero-size allocations still need a distinct address
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if d.used+size > d.cfg.MemoryBytes {
		return 0, fmt.Errorf("%w: want %d, free %d on %s",
			ErrOutOfMemory, size, d.cfg.MemoryBytes-d.used, d.cfg.Name)
	}
	addr := d.next
	d.next += Addr((size + 255) &^ 255) // 256-byte aligned spacing
	d.allocs[addr] = &allocation{addr: addr, data: make([]byte, size)}
	d.used += size
	d.stats.Allocs++
	d.stats.CurrentMemUse = d.used
	if d.used > d.stats.PeakMemUsed {
		d.stats.PeakMemUsed = d.used
	}
	return addr, nil
}

// FreeMem releases the allocation at addr.
func (d *Device) FreeMem(addr Addr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	a, ok := d.allocs[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadAddr, uint64(addr))
	}
	delete(d.allocs, addr)
	d.used -= uint64(len(a.data))
	d.stats.Frees++
	d.stats.CurrentMemUse = d.used
	return nil
}

// Size returns the size of the allocation at addr.
func (d *Device) Size(addr Addr) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[addr]
	if !ok {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddr, uint64(addr))
	}
	return uint64(len(a.data)), nil
}

func (d *Device) region(addr Addr, off, n uint64) ([]byte, error) {
	a, ok := d.allocs[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadAddr, uint64(addr))
	}
	if off+n > uint64(len(a.data)) || off+n < off {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, len(a.data))
	}
	return a.data[off : off+n], nil
}

// modelDMA charges modeled transfer time for n bytes, if configured.
func (d *Device) modelDMA(n uint64) {
	if d.cfg.DMABandwidth <= 0 && d.cfg.DMALatency <= 0 {
		return
	}
	dur := d.cfg.DMALatency
	if d.cfg.DMABandwidth > 0 {
		dur += time.Duration(float64(n) / d.cfg.DMABandwidth * float64(time.Second))
	}
	d.clk.Sleep(dur)
	d.mu.Lock()
	d.stats.TransferTime += dur
	d.mu.Unlock()
}

// CopyIn transfers host data into device memory (H2D DMA).
func (d *Device) CopyIn(addr Addr, off uint64, src []byte) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	dst, err := d.region(addr, off, uint64(len(src)))
	if err != nil {
		d.mu.Unlock()
		return err
	}
	copy(dst, src)
	d.stats.BytesH2D += uint64(len(src))
	d.stats.DMATransfers++
	d.mu.Unlock()
	d.modelDMA(uint64(len(src)))
	return nil
}

// CopyOut transfers device memory to the host (D2H DMA).
func (d *Device) CopyOut(addr Addr, off uint64, dst []byte) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	src, err := d.region(addr, off, uint64(len(dst)))
	if err != nil {
		d.mu.Unlock()
		return err
	}
	copy(dst, src)
	d.stats.BytesD2H += uint64(len(dst))
	d.stats.DMATransfers++
	d.mu.Unlock()
	d.modelDMA(uint64(len(dst)))
	return nil
}

// CopyDevice copies n bytes between two device allocations (D2D).
func (d *Device) CopyDevice(dst Addr, dstOff uint64, src Addr, srcOff, n uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	s, err := d.region(src, srcOff, n)
	if err != nil {
		return err
	}
	t, err := d.region(dst, dstOff, n)
	if err != nil {
		return err
	}
	copy(t, s)
	return nil
}

// Mem exposes a device allocation as a host slice for kernel execution.
// Kernels are trusted silo code; this is the simulated equivalent of a
// compute unit dereferencing a device pointer. The slice aliases device
// memory and must not be retained past the kernel.
func (d *Device) Mem(addr Addr) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	a, ok := d.allocs[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadAddr, uint64(addr))
	}
	return a.data, nil
}

// Snapshot returns a copy of the allocation's current contents, used by the
// swap manager and migration engine.
func (d *Device) Snapshot(addr Addr) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadAddr, uint64(addr))
	}
	return append([]byte(nil), a.data...), nil
}

// RunKernel executes f on a compute unit, blocking until one is free, and
// charges the elapsed time to client (a VM or context identifier).
func (d *Device) RunKernel(client string, f func()) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.mu.Unlock()

	<-d.cus
	defer func() { d.cus <- struct{}{} }()

	if d.cfg.KernelOverhead > 0 {
		d.clk.Sleep(d.cfg.KernelOverhead)
	}
	start := d.clk.Now()
	f()
	elapsed := d.clk.Since(start) + d.cfg.KernelOverhead

	d.mu.Lock()
	d.stats.KernelsRun++
	d.stats.KernelTime += elapsed
	d.mu.Unlock()

	d.busyMu.Lock()
	d.busy[client] += elapsed
	d.busyMu.Unlock()
	return nil
}

// BusyTime returns the accumulated kernel time charged to client.
func (d *Device) BusyTime(client string) time.Duration {
	d.busyMu.Lock()
	defer d.busyMu.Unlock()
	return d.busy[client]
}

// Stats returns a copy of the device's profiling counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Package mvnc simulates the Intel Movidius Neural Compute Stick and its
// NCSDK MVNC API, the second accelerator the paper para-virtualizes (§5).
// A device is a devsim instance with limited onboard memory; a graph is a
// compiled neural network (internal/nn) resident on the device. The API
// profile is few, large calls — allocate graph, load input tensor, read
// result — which is why the paper measured only ~1% remoting overhead for
// Inception v3 on the NCS.
package mvnc

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/devsim"
	"ava/internal/nn"
	"ava/internal/server"
)

// Spec is the CAvA specification for the MVNC API subset.
//
//go:embed mvnc.ava
var Spec string

// Descriptor compiles the MVNC stack descriptor.
func Descriptor() *cava.Descriptor { return cava.MustCompile(Spec) }

// Status codes mirroring the spec constants.
const (
	OK                int32 = 0
	ErrBusy           int32 = -1
	ErrError          int32 = -2
	ErrOutOfMemory    int32 = -3
	ErrDeviceNotFound int32 = -4
	ErrInvalidParams  int32 = -5
	ErrNoData         int32 = -8
)

// ModelBuilder constructs a network from a graph blob's options.
type ModelBuilder func(seed int64, classes int) *nn.Network

// modelRegistry maps model names (referenced by graph blobs) to builders.
var modelRegistry = map[string]ModelBuilder{
	"inception_v3_sim": nn.InceptionV3Sim,
}

// GraphBlob serializes a compiled-graph reference: the simulated analogue
// of the NCSDK's compiled graph file. Format: "model=<name>;seed=<n>;classes=<n>",
// padded with NULs to the advertised size (real blobs are megabytes of
// weights; padding preserves the transfer cost).
func GraphBlob(model string, seed int64, classes, padToBytes int) []byte {
	s := fmt.Sprintf("model=%s;seed=%d;classes=%d", model, seed, classes)
	b := make([]byte, max(len(s), padToBytes))
	copy(b, s)
	return b
}

func parseBlob(b []byte) (model string, seed int64, classes int, err error) {
	s := strings.TrimRight(string(b), "\x00")
	classes = 100
	for _, kv := range strings.Split(s, ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", 0, 0, fmt.Errorf("mvnc: malformed graph blob field %q", kv)
		}
		switch k {
		case "model":
			model = v
		case "seed":
			seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return "", 0, 0, fmt.Errorf("mvnc: bad seed %q", v)
			}
		case "classes":
			classes, err = strconv.Atoi(v)
			if err != nil {
				return "", 0, 0, fmt.Errorf("mvnc: bad classes %q", v)
			}
		}
	}
	if model == "" {
		return "", 0, 0, fmt.Errorf("mvnc: graph blob names no model")
	}
	return model, seed, classes, nil
}

// Device is one simulated NCS stick.
type Device struct {
	index int
	sim   *devsim.Device
	open  bool
}

// Graph is a network allocated on a device.
type Graph struct {
	dev     *Device
	net     *nn.Network
	classes int
	addr    devsim.Addr // device memory charged for the graph
	results [][]float32 // FIFO of pending inference results
	timeout uint32
	dead    bool

	// gen is the write generation: bumped whenever the graph's mutable
	// state (results FIFO, options) changes. snapGen remembers gen at the
	// last delta snapshot, so a checkpoint can skip graphs that have not
	// changed since the previous one. The graph's state is a few KiB at
	// most, so unlike cl buffers there is no per-range tracking — the
	// delta is all-or-nothing.
	gen     uint64
	snapGen uint64
}

// Silo is the simulated NCS pool plus the MVNC implementation.
type Silo struct {
	mu      sync.Mutex
	devices []*Device
	clk     clock.Clock
}

// Config describes the simulated stick pool.
type Config struct {
	// Sticks is the number of NCS devices; default 1.
	Sticks int
	// MemoryBytes per stick; default 512 MiB (the NCS has limited DDR).
	MemoryBytes uint64
	// Clock; nil = wall clock.
	Clock clock.Clock
}

// NewSilo builds the simulated stick pool.
func NewSilo(cfg Config) *Silo {
	if cfg.Sticks <= 0 {
		cfg.Sticks = 1
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 512 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	s := &Silo{clk: cfg.Clock}
	for i := 0; i < cfg.Sticks; i++ {
		s.devices = append(s.devices, &Device{
			index: i,
			sim: devsim.New(devsim.Config{
				Name:         fmt.Sprintf("ncs%d", i),
				MemoryBytes:  cfg.MemoryBytes,
				ComputeUnits: 1, // the NCS runs one inference at a time
				Clock:        cfg.Clock,
			}),
		})
	}
	return s
}

// MvncGetDeviceCount returns the number of sticks.
func (s *Silo) MvncGetDeviceCount(*server.Context) (uint32, int32) {
	return uint32(len(s.devices)), OK
}

// MvncGetDeviceName copies the name of stick index into dst.
func (s *Silo) MvncGetDeviceName(_ *server.Context, index uint32, _ uint64, dst []byte) int32 {
	if int(index) >= len(s.devices) {
		return ErrDeviceNotFound
	}
	copy(dst, s.devices[index].sim.Name())
	return OK
}

// MvncOpenDevice opens stick index.
func (s *Silo) MvncOpenDevice(_ *server.Context, index uint32) (*Device, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(index) >= len(s.devices) {
		return nil, ErrDeviceNotFound
	}
	d := s.devices[index]
	if d.open {
		return nil, ErrBusy
	}
	d.open = true
	return d, OK
}

// MvncCloseDevice releases a stick.
func (s *Silo) MvncCloseDevice(_ *server.Context, d *Device) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d == nil || !d.open {
		return ErrInvalidParams
	}
	d.open = false
	return OK
}

// MvncAllocateGraph compiles a graph blob onto the device.
func (s *Silo) MvncAllocateGraph(_ *server.Context, d *Device, name string, _ uint64, blob []byte) (*Graph, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d == nil || !d.open {
		return nil, ErrInvalidParams
	}
	model, seed, classes, err := parseBlob(blob)
	if err != nil {
		return nil, ErrInvalidParams
	}
	builder, ok := modelRegistry[model]
	if !ok {
		return nil, ErrInvalidParams
	}
	// Charge the blob footprint against device memory.
	addr, aerr := d.sim.Alloc(uint64(len(blob)))
	if aerr != nil {
		return nil, ErrOutOfMemory
	}
	if err := d.sim.CopyIn(addr, 0, blob); err != nil {
		d.sim.FreeMem(addr)
		return nil, ErrError
	}
	// gen starts ahead of snapGen so a graph no delta snapshot has seen
	// ships in full the first time.
	return &Graph{dev: d, net: builder(seed, classes), classes: classes, addr: addr, gen: 1}, OK
}

// MvncDeallocateGraph frees a graph.
func (s *Silo) MvncDeallocateGraph(_ *server.Context, g *Graph) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g == nil || g.dead {
		return ErrInvalidParams
	}
	g.dead = true
	g.dev.sim.FreeMem(g.addr)
	g.results = nil
	return OK
}

// MvncLoadTensor submits one input image (C×H×W float32, little-endian) for
// inference; the result queues for MvncGetResult.
func (s *Silo) MvncLoadTensor(_ *server.Context, g *Graph, _ uint64, tensor []byte) int32 {
	s.mu.Lock()
	if g == nil || g.dead {
		s.mu.Unlock()
		return ErrInvalidParams
	}
	net := g.net
	dev := g.dev
	s.mu.Unlock()

	want := net.InC * net.InHW * net.InHW * 4
	if len(tensor) != want {
		return ErrInvalidParams
	}
	in := nn.NewTensor(net.InC, net.InHW, net.InHW)
	for i := range in.Data {
		in.Data[i] = f32(binary.LittleEndian.Uint32(tensor[4*i:]))
	}
	var out *nn.Tensor
	err := dev.sim.RunKernel(fmt.Sprintf("ncs%d", dev.index), func() {
		out, _ = net.Forward(in)
	})
	if err != nil || out == nil {
		return ErrError
	}
	s.mu.Lock()
	g.results = append(g.results, out.Data)
	g.gen++
	s.mu.Unlock()
	return OK
}

// MvncGetResult pops the oldest inference result into dst (float32 LE).
func (s *Silo) MvncGetResult(_ *server.Context, g *Graph, _ uint64, dst []byte) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g == nil || g.dead {
		return ErrInvalidParams
	}
	if len(g.results) == 0 {
		return ErrNoData
	}
	res := g.results[0]
	g.results = g.results[1:]
	g.gen++
	if len(dst) < 4*len(res) {
		return ErrInvalidParams
	}
	for i, v := range res {
		binary.LittleEndian.PutUint32(dst[4*i:], f32bits(v))
	}
	return OK
}

// MvncSetGraphOption stores a graph option.
func (s *Silo) MvncSetGraphOption(_ *server.Context, g *Graph, option, value uint32) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g == nil || g.dead {
		return ErrInvalidParams
	}
	if option != 1 {
		return ErrInvalidParams
	}
	g.timeout = value
	g.gen++
	return OK
}

// MvncGetGraphOption reads a graph option.
func (s *Silo) MvncGetGraphOption(_ *server.Context, g *Graph, option uint32) (uint32, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g == nil || g.dead {
		return 0, ErrInvalidParams
	}
	if option != 1 {
		return 0, ErrInvalidParams
	}
	return g.timeout, OK
}

func f32(bits uint32) float32 { return math.Float32frombits(bits) }

func f32bits(v float32) uint32 { return math.Float32bits(v) }

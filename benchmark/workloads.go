package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/failover"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/mvnc"
	"ava/internal/rodinia"
	"ava/internal/server"
	"ava/internal/transport"
)

// workload is one row of the workload table made runnable. Counts are fixed
// (never durations): a closed loop that runs for a fixed time issues fewer
// ops when the machine is slow, which couples the sample to the noise.
type workload struct {
	name       string
	blocks     int // measured blocks after each cold start
	ops        int // AvA ops per client per block, sized to 150-300 ms
	nativeMult int // native ops per AvA op, so a native block lasts >= 50 ms
	warmupOps  int // per client, part of every cold start, sized to 0.2-0.4 s
	killOps    int // per client in the kill phase; 0 = no kill phase
	captureOps int // ops the traced run captures and replays layer by layer
	// hops are the transports a frame crosses between guest and server.
	hops []hopKind
	// specs are compiled at the start of every cold start.
	specs []string
	// wire assembles the deployment from the compiled descriptors and
	// attaches the clients.
	wire func(descs []*ava.Descriptor) (*wiring, error)
	// newRunner creates the client's objects and returns its closed loop.
	newRunner func(c client, seed int64, cfg runConfig) (runner, error)
	// router builds the workload's router, policy included, for the layer
	// replay; nil = FIFO and no policy.
	router func(desc *ava.Descriptor) (*hv.Router, ava.VMConfig)
}

type hopKind int

const (
	hopInProc hopKind = iota
	hopRing
	hopTCP
)

// client is one guest thread's view of an accelerator API: through the
// stack (lib != nil) or native.
type client struct {
	cl  cl.Client
	nc  mvnc.Client // fig5 only
	lib *guest.Lib
	nlb *guest.Lib // fig5 only: the mvnc stack's library
}

// wiring is an assembled deployment before any object exists.
type wiring struct {
	ava, native []client
	close       func()

	// Public stats readers the traced run samples.
	stack    *ava.Stack // nil on the hand-wired bulk deployment
	router   *hv.Router
	vms      []uint32
	contexts func() []*server.Context
	// devices are the simulated devices behind the stack, nativeDevices
	// those of the native twin.
	devices, nativeDevices []*devsim.Device
}

// deployment is a wiring plus one runner per client.
type deployment struct {
	*wiring
	ava, native []runner
}

// runConfig carries what the smoke test shrinks; flags never change what
// the stack does.
type runConfig struct {
	seed      int64
	blocks    int // 0 = from the workload table
	starts    int // cold starts
	tiny      bool
	corruptOp int // bulk: flip a read-back byte at this AvA op; -1 = never
}

// kernelOverhead is the modelled launch latency of the simulated GPU.
const kernelOverhead = 8 * time.Microsecond

func gpuSilo() *cl.Silo {
	// The hardware model avabench's E1 uses: launch latency and PCIe DMA
	// costs that native and remoted paths pay alike.
	return cl.NewSilo(cl.Config{Devices: []devsim.Config{{
		Name:           "bench-gpu",
		MemoryBytes:    2 << 30,
		ComputeUnits:   8,
		KernelOverhead: kernelOverhead,
		DMALatency:     10 * time.Microsecond,
		DMABandwidth:   12e9,
	}}})
}

// modelled is the device latency the hardware model has charged so far on
// devs: launch overheads and DMA times, which devsim waits out on the wall
// clock. It is the part of an op's time that does not depend on how fast the
// machine is running.
func modelled(devs []*devsim.Device) time.Duration {
	var total time.Duration
	for _, dev := range devs {
		s := dev.Stats()
		total += time.Duration(s.KernelsRun)*kernelOverhead + s.TransferTime
	}
	return total
}

func siloDevices(s *cl.Silo) []*devsim.Device {
	var out []*devsim.Device
	for _, p := range s.GetPlatformIDs() {
		ds, _ := s.GetDeviceIDs(p, cl.DeviceTypeGPU)
		for _, d := range ds {
			out = append(out, d.Sim())
		}
	}
	return out
}

func clRegistry(desc *ava.Descriptor, silo *cl.Silo) *server.Registry {
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	return reg
}

func vmName(id uint32) string { return fmt.Sprintf("vm%d", id) }

// wireStack attaches n VMs to one ava.Stack over an OpenCL silo, with n
// native clients on an identical second silo.
func wireStack(desc *ava.Descriptor, n int, cfg func(id uint32) ava.VMConfig, opts func(silo *cl.Silo) []ava.Option) (*wiring, error) {
	silo := gpuSilo()
	stack := ava.NewStack(desc, clRegistry(desc, silo), opts(silo)...)
	nsilo := gpuSilo()
	w := &wiring{stack: stack, router: stack.Router, devices: siloDevices(silo), nativeDevices: siloDevices(nsilo), close: stack.Close}
	w.contexts = func() []*server.Context {
		var out []*server.Context
		for _, id := range w.vms {
			out = append(out, stack.Context(id))
		}
		return out
	}
	for i := 0; i < n; i++ {
		id := uint32(i + 1)
		lib, err := stack.AttachVM(cfg(id))
		if err != nil {
			stack.Close()
			return nil, err
		}
		w.vms = append(w.vms, id)
		w.ava = append(w.ava, client{cl: cl.NewRemote(lib), lib: lib})
		w.native = append(w.native, client{cl: cl.NewNative(nsilo)})
	}
	return w, nil
}

func plainVM(id uint32) ava.VMConfig { return ava.VMConfig{ID: id, Name: vmName(id)} }

func noOptions(*cl.Silo) []ava.Option { return nil }

func wireCalls(descs []*ava.Descriptor) (*wiring, error) {
	return wireStack(descs[0], 1, plainVM, noOptions)
}

// wireBulk is the documented disaggregated wiring (examples/disaggregated):
// guest -> in-proc -> hv.Router -> TCP loopback -> server.ServeVM.
func wireBulk(descs []*ava.Descriptor) (*wiring, error) {
	desc := descs[0]
	silo := gpuSilo()
	srv := server.New(clRegistry(desc, silo))
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ep, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeVM(srv.Context(1, vmName(1)), ep)
			}()
		}
	}()
	router := hv.NewRouter(desc, nil, nil)
	if err := router.RegisterVM(plainVM(1)); err != nil {
		l.Close()
		wg.Wait()
		return nil, err
	}
	guestEP, routerGuest := transport.NewInProc()
	routerServer, err := transport.Dial(l.Addr())
	if err != nil {
		l.Close()
		wg.Wait()
		return nil, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		router.Attach(1, routerGuest, routerServer)
	}()
	lib := guest.New(desc, guestEP)
	nsilo := gpuSilo()
	return &wiring{
		ava:           []client{{cl: cl.NewRemote(lib), lib: lib}},
		native:        []client{{cl: cl.NewNative(nsilo)}},
		router:        router,
		vms:           []uint32{1},
		contexts:      func() []*server.Context { return []*server.Context{srv.Context(1, vmName(1))} },
		devices:       siloDevices(silo),
		nativeDevices: siloDevices(nsilo),
		close: func() {
			lib.Close()
			guestEP.Close()
			l.Close()
			wg.Wait()
		},
	}, nil
}

// wireFig5 builds the default stack twice: OpenCL for Rodinia, NCSDK for
// Inception.
func wireFig5(descs []*ava.Descriptor) (*wiring, error) {
	w, err := wireStack(descs[0], 1, plainVM, noOptions)
	if err != nil {
		return nil, err
	}
	nstack := ava.NewStack(descs[1], bindSilo(1, descs[1]))
	lib, err := nstack.AttachVM(plainVM(1))
	if err != nil {
		nstack.Close()
		w.close()
		return nil, err
	}
	w.ava[0].nc, w.ava[0].nlb = mvnc.NewRemote(lib), lib
	w.native[0].nc = mvnc.NewNative(mvnc.NewSilo(mvnc.Config{}))
	closeCL := w.close
	w.close = func() { nstack.Close(); closeCL() }
	return w, nil
}

// serveVariant selects the differential deployments the traced serve run
// compares against the real one.
type serveVariant int

const (
	serveDefault serveVariant = iota
	serveNoGuardian
	serveMirror
)

// wireServe is the multi-tenant serving deployment: two VMs on shm rings,
// fair scheduling, token buckets and a shedder that are configured but
// never bind, and a failover guardian per VM.
func wireServe(descs []*ava.Descriptor) (*wiring, error) {
	return wireServeVariant(descs, serveDefault)
}

func wireServeVariant(descs []*ava.Descriptor, v serveVariant) (*wiring, error) {
	return wireStack(descs[0], 2, serveVM, func(silo *cl.Silo) []ava.Option {
		opts := []ava.Option{
			ava.WithRingTransport(0),
			ava.WithScheduler(hv.NewFairScheduler(0)),
			ava.WithShedding(serveShed),
		}
		if v != serveNoGuardian {
			opts = append(opts, ava.WithFailover(ava.FailoverConfig{
				Adapter:    cl.MigrationAdapter{Silo: silo},
				Checkpoint: ava.CheckpointConfig{Every: 1024},
				Backoff:    failover.BackoffConfig{Seed: 12},
			}))
		}
		if v == serveMirror {
			opts = append(opts, ava.WithMirror(failover.NewMemoryMirror()))
		}
		return opts
	})
}

func serveVM(id uint32) ava.VMConfig {
	return ava.VMConfig{ID: id, Name: vmName(id), CallsPerSec: 1e6, CallBurst: 1e6, Weight: 1}
}

var serveShed = hv.ShedConfig{MaxRecentStall: time.Second}

func serveRouter(desc *ava.Descriptor) (*hv.Router, ava.VMConfig) {
	r := hv.NewRouter(desc, hv.NewFairScheduler(0), nil)
	r.SetShedPolicy(serveShed)
	return r, serveVM(1)
}

// bindSilo builds the registry for the i-th spec of a workload: OpenCL
// first, NCSDK (fig5 only) second.
func bindSilo(i int, desc *ava.Descriptor) *server.Registry {
	if i == 0 {
		return clRegistry(desc, gpuSilo())
	}
	reg := server.NewRegistry(desc)
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{}))
	return reg
}

// clientOver wraps guest libraries, one per spec, as a client.
func clientOver(libs []*guest.Lib) client {
	c := client{cl: cl.NewRemote(libs[0]), lib: libs[0]}
	if len(libs) > 1 {
		c.nc, c.nlb = mvnc.NewRemote(libs[1]), libs[1]
	}
	return c
}

var workloadTable = []*workload{
	{
		name: "calls", blocks: 5, ops: 10000, nativeMult: 40, warmupOps: 15000, captureOps: 256,
		hops: []hopKind{hopInProc, hopInProc}, specs: []string{cl.Spec},
		wire: wireCalls, newRunner: newCallsRunner,
	},
	{
		name: "bulk", blocks: 5, ops: 400, nativeMult: 2, warmupOps: 600, captureOps: 64,
		hops: []hopKind{hopInProc, hopTCP}, specs: []string{cl.Spec},
		wire: wireBulk, newRunner: newBulkRunner,
	},
	{
		name: "fig5", blocks: 3, ops: 1, nativeMult: 1, warmupOps: 1, captureOps: 1,
		hops: []hopKind{hopInProc, hopInProc}, specs: []string{cl.Spec, mvnc.Spec},
		wire: wireFig5, newRunner: newFig5Runner,
	},
	{
		name: "serve", blocks: 7, ops: 1250, nativeMult: 1, warmupOps: 2000, killOps: 2000, captureOps: 256,
		hops: []hopKind{hopRing, hopRing, hopRing}, specs: []string{cl.Spec},
		wire: wireServe, newRunner: newServeRunner, router: serveRouter,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloadTable {
		if w.name == name {
			return w
		}
	}
	return nil
}

// compileSpecs runs the CAvA front end over the workload's specifications.
func (w *workload) compileSpecs() ([]*ava.Descriptor, error) {
	descs := make([]*ava.Descriptor, len(w.specs))
	for i, src := range w.specs {
		d, err := ava.CompileSpec(src)
		if err != nil {
			return nil, err
		}
		descs[i] = d
	}
	return descs, nil
}

// clientSeed derives client i's input stream from -seed. A client's native
// twin gets the same one, so the two paths see identical ops.
func clientSeed(cfg runConfig, i int) int64 { return cfg.seed*31 + int64(i) }

// coldStart is what setup_s times: compile the specs, bind the silo, wire
// the deployment, attach the clients and create their objects. The caller
// adds the warm-up pass.
func (w *workload) coldStart(cfg runConfig) (*deployment, error) {
	descs, err := w.compileSpecs()
	if err != nil {
		return nil, err
	}
	wr, err := w.wire(descs)
	if err != nil {
		return nil, err
	}
	d := &deployment{wiring: wr}
	for i := range wr.ava {
		seed := clientSeed(cfg, i)
		ar, err := w.newRunner(wr.ava[i], seed, cfg)
		if err != nil {
			wr.close()
			return nil, err
		}
		nr, err := w.newRunner(wr.native[i], seed, cfg)
		if err != nil {
			wr.close()
			return nil, err
		}
		if f, ok := ar.(*fig5Runner); ok {
			f.want = nr.(*fig5Runner)
		}
		d.ava, d.native = append(d.ava, ar), append(d.native, nr)
	}
	return d, nil
}

// session is the object set the OpenCL workloads share: one context, queue,
// vector_add kernel and three buffers of n float32s.
type session struct {
	c             cl.Client
	q, kern       cl.Ref
	a, b, out     cl.Ref
	n             int
	hostA, hostB  []byte
	dst           []byte
	rng           uint64
	corruptOp     int
	lastScalarArg uint32
}

func openSession(c client, seed int64, n int) (*session, error) {
	s := &session{c: c.cl, n: n, rng: uint64(seed)*2654435761 | 1, corruptOp: -1}
	ps, err := s.c.PlatformIDs()
	if err != nil {
		return nil, err
	}
	ds, err := s.c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	ctx, err := s.c.CreateContext(ds)
	if err != nil {
		return nil, err
	}
	if s.q, err = s.c.CreateQueue(ctx, ds[0], 0); err != nil {
		return nil, err
	}
	size := uint64(4 * n)
	for _, m := range []*cl.Ref{&s.a, &s.b, &s.out} {
		if *m, err = s.c.CreateBuffer(ctx, 1, size); err != nil {
			return nil, err
		}
	}
	prog, err := s.c.CreateProgram(ctx, "vector_add")
	if err != nil {
		return nil, err
	}
	if err := s.c.BuildProgram(prog, ""); err != nil {
		return nil, err
	}
	if s.kern, err = s.c.CreateKernel(prog, "vector_add"); err != nil {
		return nil, err
	}
	s.hostA, s.hostB, s.dst = make([]byte, size), make([]byte, size), make([]byte, size)
	for i := 0; i < n; i++ {
		putF32(s.hostA, i, float32(s.next()%4096))
		putF32(s.hostB, i, float32(s.next()%4096))
	}
	if err := s.c.EnqueueWrite(s.q, s.a, true, 0, s.hostA); err != nil {
		return nil, err
	}
	if err := s.c.EnqueueWrite(s.q, s.b, true, 0, s.hostB); err != nil {
		return nil, err
	}
	if err := s.setArgs(uint32(n)); err != nil {
		return nil, err
	}
	return s, s.c.DeferredError()
}

// next is a xorshift step: the per-op input stream, seeded from -seed.
func (s *session) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func putF32(b []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
}

func getF32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

// setArgs issues the four clSetKernelArg calls of one launch.
func (s *session) setArgs(count uint32) error {
	s.lastScalarArg = count
	if err := s.c.SetKernelArgBuffer(s.kern, 0, s.a); err != nil {
		return err
	}
	if err := s.c.SetKernelArgBuffer(s.kern, 1, s.b); err != nil {
		return err
	}
	if err := s.c.SetKernelArgBuffer(s.kern, 2, s.out); err != nil {
		return err
	}
	return s.c.SetKernelArgScalar(s.kern, 3, cl.ArgU32(count))
}

// verifyAdd checks out[0:count] == a + b against the host copies.
func (s *session) verifyAdd(count int) error {
	for i := 0; i < count; i++ {
		if got, want := getF32(s.dst, i), getF32(s.hostA, i)+getF32(s.hostB, i); got != want {
			return fmt.Errorf("vector_add: out[%d] = %v, want %v", i, got, want)
		}
	}
	return nil
}

// callsRunner: 4 async clSetKernelArg + 1 sync clFinish per op.
type callsRunner struct{ *session }

func newCallsRunner(c client, seed int64, _ runConfig) (runner, error) {
	s, err := openSession(c, seed, 1024)
	return &callsRunner{s}, err
}

func (r *callsRunner) op(int) error {
	if err := r.setArgs(uint32(1 + r.next()%uint64(r.n))); err != nil {
		return err
	}
	if err := r.c.Finish(r.q); err != nil {
		return err
	}
	return r.c.DeferredError()
}

// check launches the kernel with whatever arguments the last op left and
// reads the result back: the async calls must have taken effect, in order.
func (r *callsRunner) check() error {
	count := int(r.lastScalarArg)
	if err := r.c.EnqueueFill(r.q, r.out, []byte{0, 0, 0, 0}, 0, uint64(len(r.dst))); err != nil {
		return err
	}
	if err := r.c.EnqueueNDRange(r.q, r.kern, []uint64{uint64(r.n)}, []uint64{64}); err != nil {
		return err
	}
	if err := r.c.EnqueueRead(r.q, r.out, true, 0, r.dst); err != nil {
		return err
	}
	if err := r.verifyAdd(count); err != nil {
		return err
	}
	if count < r.n && getF32(r.dst, count) != 0 {
		return errors.New("vector_add ran past its count argument")
	}
	return r.c.DeferredError()
}

// bulkBytes is one transfer: at least marshal.SegmentThreshold, at most the
// framebuf pool's largest class — 1 MiB frames miss the pool and made block
// times swing by 15 %.
const bulkBytes = 256 << 10

// bulkRunner: blocking write of 256 KiB, blocking read back, compare.
type bulkRunner struct{ *session }

func newBulkRunner(c client, seed int64, cfg runConfig) (runner, error) {
	s, err := openSession(c, seed, bulkBytes/4)
	if err != nil {
		return nil, err
	}
	if c.lib != nil { // only the path through the stack is ever corrupted
		s.corruptOp = cfg.corruptOp
	}
	return &bulkRunner{s}, nil
}

func (r *bulkRunner) op(i int) error {
	binary.LittleEndian.PutUint64(r.hostA, r.next())
	if err := r.c.EnqueueWrite(r.q, r.a, true, 0, r.hostA); err != nil {
		return err
	}
	if err := r.c.EnqueueRead(r.q, r.a, true, 0, r.dst); err != nil {
		return err
	}
	if i == r.corruptOp {
		r.dst[len(r.dst)/2] ^= 0xff
	}
	if !bytes.Equal(r.dst, r.hostA) {
		return errors.New("bulk: read-back differs from what was written")
	}
	return r.c.DeferredError()
}

// serveRunner: an inference-style request — async 4 KiB input write, four
// async clSetKernelArg, async vector_add launch, blocking 4 KiB result read.
type serveRunner struct{ *session }

func newServeRunner(c client, seed int64, _ runConfig) (runner, error) {
	s, err := openSession(c, seed, 1024)
	return &serveRunner{s}, err
}

func (r *serveRunner) op(int) error {
	base := r.next()
	for i := 0; i < r.n; i++ {
		putF32(r.hostA, i, float32((base+uint64(i))%4096))
	}
	if err := r.c.EnqueueWrite(r.q, r.a, false, 0, r.hostA); err != nil {
		return err
	}
	if err := r.setArgs(uint32(r.n)); err != nil {
		return err
	}
	if err := r.c.EnqueueNDRange(r.q, r.kern, []uint64{uint64(r.n)}, []uint64{64}); err != nil {
		return err
	}
	if err := r.c.EnqueueRead(r.q, r.out, true, 0, r.dst); err != nil {
		return err
	}
	if err := r.verifyAdd(r.n); err != nil {
		return err
	}
	return r.c.DeferredError()
}

// fig5Runner: one op is one pass over the nine Rodinia programs at scale 1
// plus two Inception inferences. The native runner keeps its checksums; the
// AvA runner must reproduce them exactly.
type fig5Runner struct {
	c          client
	programs   []rodinia.Workload
	inferences int
	sums       []float64
	want       *fig5Runner
}

func newFig5Runner(c client, _ int64, cfg runConfig) (runner, error) {
	r := &fig5Runner{c: c, programs: rodinia.All(), inferences: 2}
	if cfg.tiny {
		// nw is the cheapest of the nine, by far so under the race detector.
		nw, _ := rodinia.ByName("nw")
		r.programs, r.inferences = []rodinia.Workload{nw}, 1
	}
	return r, nil
}

func (r *fig5Runner) op(int) error {
	r.sums = r.sums[:0]
	for _, w := range r.programs {
		sum, err := w.Run(r.c.cl, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		r.sums = append(r.sums, sum)
	}
	sum, err := mvnc.RunInception(r.c.nc, r.inferences)
	if err != nil {
		return fmt.Errorf("inception: %w", err)
	}
	r.sums = append(r.sums, sum)
	if r.want != nil {
		if len(r.want.sums) != len(r.sums) {
			return errors.New("fig5: no native checksums to compare with")
		}
		for i, s := range r.sums {
			if s != r.want.sums[i] {
				return fmt.Errorf("fig5: checksum %d is %v through the stack, %v native", i, s, r.want.sums[i])
			}
		}
	}
	return nil
}

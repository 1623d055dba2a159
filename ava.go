// Package ava assembles complete AvA stacks: automatic virtualization of
// accelerator APIs by API remoting, after Yu, Peters, Akshintala and
// Rossbach, "Automatic Virtualization of Accelerators" (HotOS 2019).
//
// An AvA stack for an API consists of (Figure 3 of the paper):
//
//   - a guest library that intercepts and marshals API calls in a VM
//     (internal/guest, driven by metadata compiled from the API's CAvA
//     specification by internal/cava),
//   - a hypervisor-level router that verifies, rate-limits and schedules
//     forwarded calls over interposable transport (internal/hv,
//     internal/transport),
//   - an API server that executes calls against the accelerator silo under
//     per-VM isolation (internal/server).
//
// This package wires those components together. Given a compiled
// Descriptor and a silo's handler registry, NewStack builds the router and
// server; AttachVM connects one guest, returning the guest library an
// application (or a generated typed binding such as cl.RemoteClient) uses.
//
//	desc := cl.Descriptor()
//	reg := server.NewRegistry(desc)
//	cl.BindServer(reg, silo)
//	stack := ava.NewStack(desc, reg)
//	lib, _ := stack.AttachVM(ava.VMConfig{ID: 1, Name: "guest-vm"})
//	client := cl.NewRemote(lib)
package ava

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ava/internal/averr"
	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/sched"
	"ava/internal/server"
	"ava/internal/spec"
	"ava/internal/transport"
)

// Re-exported aliases so stack consumers rarely need the internal paths.
type (
	// Descriptor is a compiled API stack descriptor.
	Descriptor = cava.Descriptor
	// VMConfig is the per-VM sharing policy.
	VMConfig = hv.VMConfig
	// Scheduler orders calls across contending VMs.
	Scheduler = hv.Scheduler
	// GuestLib is the descriptor-driven guest stub engine.
	GuestLib = guest.Lib
	// CallOptions carries per-call deadline and priority metadata
	// (guest.CallOptions; pass to GuestLib.CallWith or a binding's With).
	CallOptions = guest.CallOptions
	// CallOption adjusts one call's forwarding metadata (guest.CallOption;
	// built with guest.WithTimeout, guest.WithPriority, ...).
	CallOption = guest.CallOption
	// ShedConfig tunes the router's load shedder (hv.ShedConfig).
	ShedConfig = hv.ShedConfig
	// SchedPolicy orders placement candidates for a VM (sched.Policy;
	// built-ins: sched.LeastLoad, sched.NewSpreadByVMCount).
	SchedPolicy = sched.Policy
	// SchedDecision is one recorded scheduling choice (sched.Decision).
	SchedDecision = sched.Decision
	// RebalanceConfig tunes the background rebalancer (sched.Config).
	RebalanceConfig = sched.Config
)

// Stack-wide sentinel errors (internal/averr), usable with errors.Is on
// any error surfaced by any layer.
var (
	// ErrDeadlineExceeded reports a call whose deadline passed before it
	// completed, whether it failed fast in the guest, was denied at the
	// router, or was aborted at the server.
	ErrDeadlineExceeded = averr.ErrDeadlineExceeded
	// ErrCanceled reports a call aborted by an explicit cancellation.
	ErrCanceled = averr.ErrCanceled
	// ErrOverloaded reports a call shed by the router's overload control.
	ErrOverloaded = averr.ErrOverloaded
	// ErrUnknownVM reports routing or stats for an unregistered VM.
	ErrUnknownVM = averr.ErrUnknownVM
	// ErrBadArg reports arguments that do not match the specification.
	ErrBadArg = averr.ErrBadArg
	// ErrRetryable reports a call lost to an API-server failure that the
	// failover layer could not transparently resubmit; the caller may
	// safely reissue it.
	ErrRetryable = averr.ErrRetryable
)

// CompileSpec parses and compiles a CAvA specification.
func CompileSpec(src string) (*Descriptor, error) {
	api, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	return cava.Compile(api)
}

// GenerateStack emits the generated Go source for an API's stack
// components (typed guest library + API server over a typed silo interface), as the
// cava command does.
func GenerateStack(desc *Descriptor, specSrc string) ([]byte, cava.GenStats, error) {
	return cava.Generate(desc, specSrc, cava.GenOptions{})
}

// InferSpec generates a preliminary annotated specification from bare
// declarations (the CAvA workflow of Figure 2) and returns its canonical
// text plus the inference notes for developer review.
func InferSpec(src string) (string, []spec.Note, error) {
	api, err := spec.ParseNoValidate(src)
	if err != nil {
		return "", nil, err
	}
	notes := spec.Infer(api)
	return spec.Print(api), notes, nil
}

// TransportKind selects the remoting transport for a VM attachment.
type TransportKind int

// Available transports.
const (
	// TransportInProc uses channel pairs (hypercall-like, the default).
	TransportInProc TransportKind = iota
	// TransportRing uses simulated shared-memory FIFO rings (the SVGA-
	// style hypervisor-managed queues the paper cites).
	TransportRing
)

// Option configures a Stack at construction; pass options to NewStack.
// Each With* option sets one cohesive knob.
type Option func(*Config)

// Config is a Stack's full configuration, grouped by the layer each knob
// steers. The zero value is a working default (in-process transport, FIFO
// scheduling, wall clock, no shedding, no failover).
// Options populate it; NewStack consumes it.
type Config struct {
	// Scheduler orders calls across contending VMs; nil = FIFO.
	Scheduler hv.Scheduler
	// Clock is the stack-wide time source (guest stamping, router
	// admission, server dispatch); nil = wall clock.
	Clock clock.Clock
	// Transport groups the wiring between guest, router and server.
	Transport TransportConfig
	// Router groups hypervisor-side admission control.
	Router RouterConfig
	// Failover enables fault-tolerant remoting for attached VMs: a per-VM
	// guardian shadows the record log, checkpoints periodically, and on
	// API-server failure respawns or re-dials the server, replays state,
	// and directs the guest library to resubmit its unacked calls. Nil
	// disables.
	Failover *FailoverConfig
	// Placement enables admission-time placement: every attached VM's
	// server is dialed out of the fleet registry through a per-VM
	// FleetDialer ranked by the configured policy, and each landing is
	// recorded in the scheduling decision log. Implies failover (a zero
	// FailoverConfig is assumed when Failover is nil). Nil disables.
	Placement *PlacementConfig
	// Rebalance starts the background rebalancer over the placement
	// fleet: sustained load skew live-migrates VMs off hot hosts through
	// the guardian's checkpoint/migrate machinery. Requires Placement.
	// Nil disables.
	Rebalance *RebalanceConfig
}

// TransportConfig selects and sizes the remoting transport.
type TransportConfig struct {
	// Kind selects the in-process hops: guest↔router, and router↔server
	// when the server is the stack's own.
	Kind TransportKind
	// RingBytes sizes each ring when Kind == TransportRing; 0 = 1MiB.
	RingBytes int
	// ServerAddr, when set, puts the API server on another machine (§4.1's
	// disaggregated configuration): every attached VM's server is the avad
	// (internal/host) listening there, reached over TCP with the hello
	// handshake, instead of the stack's own server.Server.
	ServerAddr string
}

// RouterConfig groups hypervisor-side admission policy.
type RouterConfig struct {
	// Shed configures the router's load shedder; the zero value leaves
	// shedding off.
	Shed hv.ShedConfig
}

// WithScheduler sets the cross-VM scheduler.
func WithScheduler(s hv.Scheduler) Option { return func(c *Config) { c.Scheduler = s } }

// WithClock sets the stack-wide time source.
func WithClock(clk clock.Clock) Option { return func(c *Config) { c.Clock = clk } }

// WithTransport selects the remoting transport kind.
func WithTransport(k TransportKind) Option { return func(c *Config) { c.Transport.Kind = k } }

// WithRingTransport selects the shared-memory ring transport sized at n
// bytes per ring (0 = 1MiB).
func WithRingTransport(n int) Option {
	return func(c *Config) { c.Transport = TransportConfig{Kind: TransportRing, RingBytes: n} }
}

// WithRemoteServer serves every attached VM from the avad at addr instead
// of the stack's own API server (TransportConfig.ServerAddr).
func WithRemoteServer(addr string) Option {
	return func(c *Config) { c.Transport.ServerAddr = addr }
}

// WithShedding configures the router's load shedder.
func WithShedding(cfg hv.ShedConfig) Option { return func(c *Config) { c.Router.Shed = cfg } }

// WithFailover enables fault-tolerant remoting with the given tuning.
func WithFailover(fc FailoverConfig) Option {
	return func(c *Config) { c.Failover = &fc }
}

// WithPlacement enables registry-backed admission-time placement.
func WithPlacement(pc PlacementConfig) Option {
	return func(c *Config) { c.Placement = &pc }
}

// WithMirror streams every attached VM's shadow log to sink (enabling
// failover with default tuning when WithFailover was not given). Apply
// after WithFailover — WithFailover replaces the whole failover config.
func WithMirror(sink failover.LogSink) Option {
	return func(c *Config) {
		if c.Failover == nil {
			c.Failover = &FailoverConfig{}
		}
		c.Failover.Replication.Sink = sink
	}
}

// WithRebalance starts the background rebalancer; requires WithPlacement.
// An Interval of 0 builds the rebalancer in manual mode — no background
// loop; Stack.Rebalancer().Tick()/Kick() drive it — which is what
// deterministic tests and operator-triggered-only deployments want.
func WithRebalance(rc RebalanceConfig) Option {
	return func(c *Config) { c.Rebalance = &rc }
}

// PlacementConfig wires a stack to a fleet registry for admission-time
// placement (see internal/sched). Every attached VM gets a FleetDialer
// over Locator whose candidate ranking is delegated to Policy; landings
// feed the decision log and, for history-tracking policies, the policy's
// observed placements.
type PlacementConfig struct {
	// Locator is the fleet registry handle (fleet.Registry in-process, or
	// a fleet.Client over TCP). Required.
	Locator fleet.Locator
	// API names the accelerator API requested from the registry; "" uses
	// the stack descriptor's name.
	API string
	// Policy ranks live candidates per VM; nil = sched.LeastLoad.
	Policy sched.Policy
	// Log receives placement/failover/rebalance decisions; nil builds a
	// fresh log (read it back via Stack.SchedDecisions).
	Log *sched.Log
}

// FailoverConfig tunes the per-VM failover guardian (see internal/failover).
type FailoverConfig struct {
	// Adapter is a leftover: an API binding's BindServer installs the
	// object-state adapter on the registry (server.Registry.Adapter), and
	// that is what checkpoints and recovery use. This one is consulted only
	// when the stack's own registry carries none — it becomes that
	// registry's — and goes when benchmark/, which sets it, may be edited.
	Adapter server.Adapter
	// Checkpoint groups checkpoint cadence policy.
	Checkpoint CheckpointConfig
	// Liveness groups failure-detection timing.
	Liveness LivenessConfig
	// Backoff shapes respawn retries and the guest's shared retry budget.
	Backoff failover.BackoffConfig
	// Retain caps the guest's retained-call window; 0 = 4096.
	Retain int
	// Replication groups shadow-log mirroring and rehydration.
	Replication ReplicationConfig
	// WrapServerLink, when set, wraps each freshly dialed router→server
	// endpoint, whichever south hop dialed it — e.g. transport.NewFlaky for
	// fault injection in tests.
	WrapServerLink func(transport.Endpoint) transport.Endpoint
}

// CheckpointConfig groups the guardian's checkpoint cadence.
type CheckpointConfig struct {
	// Every cuts a quiesced checkpoint after this many calls; 0 disables
	// periodic checkpoints.
	Every int
	// Adaptive scales the cadence with device load: a due checkpoint is
	// deferred while synchronous calls are in flight (the quiesce barrier
	// would stall them) until the uncheckpointed span approaches half the
	// retained window, and the heartbeat cuts overdue checkpoints as soon
	// as the link goes idle.
	Adaptive bool
}

// LivenessConfig groups the guardian's failure-detection timing.
type LivenessConfig struct {
	// HeartbeatEvery probes server liveness when the link has been idle
	// this long; 0 disables probing (transport errors still detect death).
	HeartbeatEvery time.Duration
	// Timeout bounds quiesce/liveness marker round trips; 0 = 2s.
	Timeout time.Duration
}

// ReplicationConfig groups shadow-log mirroring and rehydration, the
// guardian-crash half of cross-host recovery. Sink or RemoteAddr names the
// mirror destination (an in-process Sink wins); WithMirror sets Sink without
// spelling the nesting out.
type ReplicationConfig struct {
	// Sink, if set, receives a synchronous stream of the guardian's
	// shadow-log mutations and checkpoints (failover.LogSink) so replay
	// state survives a guardian crash, not just an API-server crash.
	// Checkpoints reach it as deltas (failover.LogSink.MirrorCheckpoint).
	Sink failover.LogSink
	// RemoteAddr, when non-empty (and no in-process sink is set),
	// replicates each attached VM's shadow log to the mirror listener
	// at this address (a peer avad started with -mirror). Each VM gets its
	// own failover.RemoteMirror, closed on detach; a replacement stack on
	// any machine rehydrates with failover.FetchMirrorState(addr, vm) into
	// Restore.
	RemoteAddr string
	// Restore, if set, rehydrates the guardian from a mirrored shadow log
	// instead of starting empty: on attach the guardian replays the
	// restored log onto a freshly dialed server and tells the guest to
	// resubmit everything past the restored watermark.
	Restore *failover.MirrorState
}

// sinkFor resolves the replication wiring for one VM, building the per-VM
// RemoteMirror — which the attachment must close — when the config names a
// remote address and no in-process sink.
func (rc ReplicationConfig) sinkFor(vm uint32, name string, bo failover.BackoffConfig) (failover.LogSink, *failover.RemoteMirror) {
	if rc.Sink != nil || rc.RemoteAddr == "" {
		return rc.Sink, nil
	}
	rm := failover.NewRemoteMirror(rc.RemoteAddr, failover.RemoteMirrorConfig{
		VM: vm, Name: name, Backoff: bo,
	})
	return rm, rm
}

// Stack is an assembled AvA deployment for one API: one router, one API
// server (its own, or remote ones reached by address or through a fleet
// registry), any number of attached VMs.
type Stack struct {
	Desc   *cava.Descriptor
	Router *hv.Router
	Server *server.Server

	cfg Config

	policy     sched.Policy // placement ranking; nil without Placement
	schedLog   *sched.Log   // decision log; nil without Placement
	rebalancer *sched.Rebalancer

	mu         sync.Mutex
	vms        map[uint32]*attachment
	relocating map[uint32]bool // VMs with a rebalance move in flight
}

type attachment struct {
	lib      *guest.Lib
	eps      []transport.Endpoint
	done     chan struct{}
	guardian *failover.Guardian
	dialer   *failover.FleetDialer  // placement-built dialer, else nil
	remote   *failover.RemoteMirror // stack-built remote mirror, else nil
}

// NewStack builds the hypervisor and server halves over a silo registry.
// reg may be nil when the server is remote (WithRemoteServer,
// WithPlacement): the stack's own server then has nothing to serve.
func NewStack(desc *cava.Descriptor, reg *server.Registry, opts ...Option) *Stack {
	var cfg Config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if reg == nil {
		reg = server.NewRegistry(desc)
	}
	if fc := cfg.Failover; fc != nil && reg.Adapter == nil {
		reg.Adapter = fc.Adapter // see FailoverConfig.Adapter
	}
	s := &Stack{
		Desc:       desc,
		Router:     hv.NewRouter(desc, cfg.Scheduler, cfg.Clock),
		Server:     server.New(reg),
		cfg:        cfg,
		vms:        make(map[uint32]*attachment),
		relocating: make(map[uint32]bool),
	}
	s.Router.SetShedPolicy(cfg.Router.Shed)
	if pc := cfg.Placement; pc != nil && pc.Locator != nil {
		s.policy = pc.Policy
		if s.policy == nil {
			s.policy = sched.LeastLoad{}
		}
		s.schedLog = pc.Log
		if s.schedLog == nil {
			s.schedLog = sched.NewLog()
		}
		if rc := cfg.Rebalance; rc != nil {
			background := rc.Interval > 0
			rcv := *rc
			if rcv.Policy == nil {
				rcv.Policy = s.policy
			}
			if rcv.Log == nil {
				rcv.Log = s.schedLog
			}
			if rcv.Clock == nil {
				rcv.Clock = cfg.Clock
			}
			s.rebalancer = sched.New(rcv, s.hostLoads, s.MigrateVM)
			if background {
				s.rebalancer.Start()
			}
		}
	}
	return s
}

func (s *Stack) pair() (transport.Endpoint, transport.Endpoint) {
	switch s.cfg.Transport.Kind {
	case TransportRing:
		n := s.cfg.Transport.RingBytes
		if n <= 0 {
			n = 1 << 20
		}
		return transport.NewRing(n)
	default:
		return transport.NewInProc()
	}
}

// newContext builds a fresh server-side execution context for one VM,
// wired to the stack's clock.
func (s *Stack) newContext(id uint32, name string) *server.Context {
	ctx := s.Server.Context(id, name)
	if s.cfg.Clock != nil {
		ctx.SetClock(s.cfg.Clock)
	}
	return ctx
}

// southDial returns the one dial that reaches a VM's API server: the
// stack's south hop, chosen once from the configuration.
//
//   - Placement: a fleet member picked through the registry (the returned
//     FleetDialer is the VM's, nil for the other hops).
//   - Transport.ServerAddr: the avad at that address.
//   - Otherwise the stack's own server over a fresh in-process pair, in a
//     fresh context.
//
// Each call is one server incarnation, reached by its endpoint alone: the
// stack's own server answers the guardian's replay, rebind, restore and
// capture control calls on it as a remote host does. A VM without a
// guardian dials once and the router forwards straight onto the link; a
// guardian dials again on every recovery. Whatever the hop, a fresh link
// is wrapped by WrapServerLink and its host recorded with the router, so a
// cross-host move re-fences any frames stamped for the old host. epoch
// stamps the hello of a remote dial.
func (s *Stack) southDial(id uint32, name string, fc *FailoverConfig, epoch func() uint32) (func() (transport.Endpoint, error), *failover.FleetDialer) {
	if fc == nil {
		fc = &FailoverConfig{}
	}
	var (
		placed *failover.FleetDialer
		hop    func() (link transport.Endpoint, host string, err error)
	)
	switch addr := s.cfg.Transport.ServerAddr; {
	case s.policy != nil:
		placed = s.newPlacedDialer(id, name, epoch)
		hop = func() (transport.Endpoint, string, error) {
			link, err := placed.Dial()
			return link, placed.Host(), err
		}
	case addr != "":
		hop = func() (transport.Endpoint, string, error) {
			link, err := failover.DialHost(addr, id, epoch(), name)
			return link, addr, err
		}
	default:
		hop = func() (transport.Endpoint, string, error) {
			// Every incarnation starts clean; a guardian replays state
			// into it before traffic resumes.
			s.Server.DropContext(id)
			south, serverEP := s.pair()
			go s.Server.ServeVM(s.newContext(id, name), serverEP)
			return south, "local", nil
		}
	}
	return func() (transport.Endpoint, error) {
		link, host, err := hop()
		if err != nil {
			return nil, err
		}
		if fc.WrapServerLink != nil {
			link = fc.WrapServerLink(link)
		}
		s.Router.SetServingHost(id, host)
		return link, nil
	}, placed
}

// AttachVM registers a VM with the router, dials its API server (see
// southDial), starts its router loop, and returns the guest library bound
// to its transport. With Config.Failover set, a per-VM guardian is
// interposed between the router and the API server as the router's south
// endpoint: it shadows the record log, checkpoints periodically, and on
// server failure dials a fresh server incarnation, replays its state, and
// coordinates the guest library's transparent resubmission.
func (s *Stack) AttachVM(cfg VMConfig, opts ...guest.Option) (*guest.Lib, error) {
	if err := s.Router.RegisterVM(cfg); err != nil {
		return nil, err
	}
	id := cfg.ID
	fc := s.cfg.Failover
	if fc == nil && s.policy != nil {
		// Placement implies failover, with default guardian tuning.
		fc = &FailoverConfig{}
	}
	at := &attachment{done: make(chan struct{})}
	dial, placed := s.southDial(id, cfg.Name, fc, func() uint32 {
		if at.guardian == nil {
			return 0
		}
		return at.guardian.Epoch()
	})
	at.dialer = placed
	guestEP, routerGuest := s.pair()

	var base []guest.Option
	// The configured clock reaches every layer: guest deadline stamping
	// and fail-fast run on the same time source as router admission and
	// server dispatch (options may still override per attachment).
	if s.cfg.Clock != nil {
		base = append(base, guest.WithClock(s.cfg.Clock))
	}

	var (
		routerServer transport.Endpoint
		err          error
	)
	if fc == nil {
		routerServer, err = dial()
	} else {
		var sink failover.LogSink
		sink, at.remote = fc.Replication.sinkFor(id, cfg.Name, fc.Backoff)
		at.guardian = failover.New(s.Desc, dial, failover.Config{
			CheckpointEvery:    fc.Checkpoint.Every,
			AdaptiveCheckpoint: fc.Checkpoint.Adaptive,
			HeartbeatEvery:     fc.Liveness.HeartbeatEvery,
			LivenessTimeout:    fc.Liveness.Timeout,
			Backoff:            fc.Backoff,
			Retain:             fc.Retain,
			Sink:               sink,
			Restore:            fc.Replication.Restore,
			Clock:              s.cfg.Clock,
			OnEpoch:            func(e uint32) { s.Router.SetEpoch(id, e) },
		})
		// The guardian is the router's south endpoint: no hop between them.
		if err = at.guardian.Start(); err == nil {
			routerServer = at.guardian.Endpoint()
		} else {
			at.guardian.Close()
		}
		base = append(base, guest.WithFailover(guest.FailoverPolicy{Retain: fc.Retain}))
		if fc.Replication.Restore != nil {
			// The mirror's watermark fences the first life's sequence
			// numbers; a fresh library must number its calls past it or
			// its first calls would be trimmed as already-covered.
			base = append(base, guest.WithSequenceBase(fc.Replication.Restore.W))
		}
	}
	if err != nil {
		s.Router.UnregisterVM(id)
		if at.remote != nil {
			at.remote.Close()
		}
		for _, ep := range []transport.Endpoint{guestEP, routerGuest, routerServer} {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	}

	go func() {
		defer close(at.done)
		s.Router.Attach(id, routerGuest, routerServer)
	}()
	at.lib = guest.New(s.Desc, guestEP, append(base, opts...)...)
	at.eps = []transport.Endpoint{guestEP, routerGuest, routerServer}
	s.mu.Lock()
	s.vms[id] = at
	s.mu.Unlock()
	return at.lib, nil
}

// newPlacedDialer builds the per-VM registry dialer placement uses.
func (s *Stack) newPlacedDialer(id uint32, name string, epoch func() uint32) *failover.FleetDialer {
	pc := s.cfg.Placement
	return failover.NewFleetDialer(pc.Locator, failover.FleetDialConfig{
		API:    s.placementAPI(),
		VM:     id,
		Name:   name,
		Epoch:  epoch,
		Rank:   s.policy.Rank,
		OnDial: s.noteDial,
	})
}

func (s *Stack) placementAPI() string {
	if api := s.cfg.Placement.API; api != "" {
		return api
	}
	return s.Desc.Name
}

// noteDial observes every successful placed dial: history-tracking
// policies follow the move, and the decision log records admissions and
// failover landings (rebalance moves are logged by the rebalancer itself,
// so a relocation in flight is not double-counted as a failover).
func (s *Stack) noteDial(vm uint32, host, prev string) {
	if obs, ok := s.policy.(interface{ Observe(uint32, string) }); ok {
		obs.Observe(vm, host)
	}
	s.mu.Lock()
	reloc := s.relocating[vm]
	delete(s.relocating, vm)
	s.mu.Unlock()
	switch {
	case prev == "":
		s.schedLog.Add(sched.Decision{
			Time: s.now(), Kind: "place", VM: vm, To: host,
			Policy: s.policy.Name(), Reason: "admission",
		})
	case host != prev && !reloc:
		s.schedLog.Add(sched.Decision{
			Time: s.now(), Kind: "failover", VM: vm, From: prev, To: host,
			Policy: s.policy.Name(), Reason: "host failure",
		})
	}
}

func (s *Stack) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock.Now()
	}
	return time.Now()
}

// hostLoads joins the registry's live view with the stack's per-VM
// serving hosts — the rebalancer's load source.
func (s *Stack) hostLoads() []sched.HostLoad {
	ms, err := s.cfg.Placement.Locator.Live(s.placementAPI())
	if err != nil {
		return nil
	}
	s.mu.Lock()
	byHost := make(map[string][]uint32)
	for id, at := range s.vms {
		if at.dialer == nil {
			continue
		}
		if h := at.dialer.Host(); h != "" {
			byHost[h] = append(byHost[h], id)
		}
	}
	s.mu.Unlock()
	out := make([]sched.HostLoad, 0, len(ms))
	for _, m := range ms {
		vms := byHost[m.ID]
		sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
		out = append(out, sched.HostLoad{Member: m, VMs: vms})
	}
	return out
}

// MigrateVM live-migrates a placed VM: cut a quiesced checkpoint through
// the guardian, direct the dialer off its current host (toward target, or
// the policy's best peer when target is ""), and sever the serving link
// so the guardian's recovery dials — and lands — elsewhere under epoch
// fencing. The rebalancer calls this; the control plane's POST /migrate
// may too. Recovery is asynchronous: the call returns once the migration
// is irrevocably started.
func (s *Stack) MigrateVM(id uint32, target string) error {
	s.mu.Lock()
	at := s.vms[id]
	s.mu.Unlock()
	if at == nil || at.guardian == nil || at.dialer == nil {
		return fmt.Errorf("%w: VM %d is not under placement", averr.ErrUnknownVM, id)
	}
	if err := at.guardian.CheckpointNow(); err != nil {
		return fmt.Errorf("migrate vm %d: checkpoint: %w", id, err)
	}
	s.mu.Lock()
	s.relocating[id] = true
	s.mu.Unlock()
	at.dialer.Relocate(target)
	at.guardian.KillServer()
	return nil
}

// VMHost reports the fleet member currently serving a placed VM ("" for
// unplaced or unknown VMs).
func (s *Stack) VMHost(id uint32) string {
	s.mu.Lock()
	at := s.vms[id]
	s.mu.Unlock()
	if at == nil || at.dialer == nil {
		return ""
	}
	return at.dialer.Host()
}

// SchedDecisions returns the retained scheduling decisions, oldest first
// (empty without placement).
func (s *Stack) SchedDecisions() []SchedDecision {
	if s.schedLog == nil {
		return nil
	}
	return s.schedLog.Decisions()
}

// Rebalancer returns the background rebalancer (nil unless WithRebalance).
func (s *Stack) Rebalancer() *sched.Rebalancer { return s.rebalancer }

// VMs returns the IDs of currently attached VMs, sorted ascending.
func (s *Stack) VMs() []uint32 {
	s.mu.Lock()
	out := make([]uint32, 0, len(s.vms))
	for id := range s.vms {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GuestLib returns the guest library of an attached VM, or nil for an
// unknown VM — the handle observability surfaces use to read guest-side
// counters without holding an attachment reference of their own.
func (s *Stack) GuestLib(id uint32) *guest.Lib {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at := s.vms[id]; at != nil {
		return at.lib
	}
	return nil
}

// Guardian returns the failover guardian for an attached VM, or nil when
// failover is disabled or the VM is unknown.
func (s *Stack) Guardian(id uint32) *failover.Guardian {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at := s.vms[id]; at != nil {
		return at.guardian
	}
	return nil
}

// KillServer abruptly severs a VM's router→server link — the SIGKILL
// equivalent used by chaos tests and the E12 experiment. Requires failover.
func (s *Stack) KillServer(id uint32) error {
	g := s.Guardian(id)
	if g == nil {
		return fmt.Errorf("%w: VM %d has no failover guardian", averr.ErrUnknownVM, id)
	}
	g.KillServer()
	return nil
}

// Context returns the live server-side execution context of a VM served by
// the stack's own server, or nil: a detached or unknown VM has none, and a
// remotely served VM's lives on its host. Asking never creates one.
func (s *Stack) Context(id uint32) *server.Context {
	return s.Server.Lookup(id)
}

// DetachVM tears down one VM's plumbing.
func (s *Stack) DetachVM(id uint32) {
	s.mu.Lock()
	at := s.vms[id]
	delete(s.vms, id)
	delete(s.relocating, id)
	s.mu.Unlock()
	if fg, ok := s.policy.(interface{ Forget(uint32) }); ok {
		fg.Forget(id)
	}
	if at == nil {
		return
	}
	at.lib.Close()
	for _, ep := range at.eps {
		ep.Close()
	}
	if at.guardian != nil {
		at.guardian.Close()
	}
	if at.remote != nil {
		// Let queued replication land before the connection drops; a
		// graceful detach should leave the mirror host current.
		at.remote.Flush(time.Second)
		at.remote.Close()
	}
	<-at.done
	s.Router.UnregisterVM(id)
	s.Server.DropContext(id)
}

// Close tears down every attachment and stops the rebalancer.
func (s *Stack) Close() {
	if s.rebalancer != nil {
		s.rebalancer.Close()
	}
	s.mu.Lock()
	ids := make([]uint32, 0, len(s.vms))
	for id := range s.vms {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.DetachVM(id)
	}
}

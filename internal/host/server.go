// Package host is the runtime of the paper's third generated part — "an
// API server, an unprivileged host process" (§3, §4.1): the one
// implementation of what a serving machine does around a server.Server,
// and of what a fleet-registry machine does around a fleet.Registry.
// cmd/avad and cmd/avaregd are flag parsing over these two types, and
// the cross-host experiments (E13, E15, E16) and chaos tests construct
// the same types in process, so what they prove, they prove of the daemon.
//
// A Server's connection lifecycle:
//
//	accept → read hello → reject-list check → admission ack →
//	DropContext → Context → ServeVM → unbind → AnnounceNow
//
// Both types stop two ways. Shutdown is the graceful drain: peers read
// end-of-stream (ErrClosed), never a sever. Kill is a SIGKILL: every
// accepted connection dies mid-stream, and only then is the host
// deregistered (DESIGN.md, "Host runtime", has the reasons for the order).
package host

import (
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"sync"
	"time"

	"ava/internal/ctlplane"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/sched"
	"ava/internal/server"
	"ava/internal/transport"
)

// rejectTTL is how long an evicted VM's reconnects are refused: long
// enough for its guardian to spend the same-host retry budget and land on
// a peer, short enough that the VM stays schedulable here afterwards.
const rejectTTL = 30 * time.Second

// Config describes one serving host. The zero value of every field but
// Listen is usable: standalone, unannounced, no mirror, silent.
type Config struct {
	// Listen is the address VM connections arrive on (port 0 picks one).
	Listen string
	// API names the served API in the fleet ("opencl", "mvnc", "qat").
	API string
	// Locator is the fleet registry to announce to; nil runs standalone.
	// The caller keeps ownership: the host never closes it.
	Locator fleet.Locator
	// ID is the fleet member identity; empty uses the advertised address.
	ID string
	// Advertise is the address peers dial; empty uses the bound address.
	Advertise string
	// AnnounceEvery is the heartbeat interval; 0 selects fleet TTL/4.
	AnnounceEvery time.Duration
	// Drain is how long Shutdown waits for connections to end on their
	// own before closing them.
	Drain time.Duration
	// Mirror, when set, also serves a replication mirror host
	// (failover.MirrorServer) on that address.
	Mirror string
	// Rebalance, when set, sheds sustained load skew by evicting VMs
	// toward lighter fleet peers; requires Locator. From and Log are
	// filled in by the host.
	Rebalance *sched.Config
	// Log receives connection and lifecycle events; nil is silent.
	Log *log.Logger
}

// Server is one serving host: a VM listener over a server.Server, with
// the eviction list, load announcements, optional mirror serving and
// optional self-evicting rebalancer around it.
type Server struct {
	cfg Config // Log is never nil
	srv *server.Server
	id  string // fleet member ID ("" when standalone)

	listeners  []*listener // the VM listener, then the mirror's if any
	mirror     *failover.MirrorServer
	announcer  *fleet.Announcer
	rebalancer *sched.Rebalancer
	schedLog   *sched.Log

	mu        sync.Mutex
	vms       map[uint32]transport.Endpoint // latest serving connection per VM
	rejected  map[uint32]time.Time          // VM -> eviction instant; refused for rejectTTL after it
	prevBytes uint64                        // data-plane bytes at the last load sample

	stopOnce sync.Once
	done     chan struct{}
	// started is closed once Start has set up everything above: a VM
	// connection the listener accepted earlier waits for it before it reads
	// the announcer or the rebalancer's fields.
	started chan struct{}
}

// Start binds the listeners and begins serving srv. The returned Server
// runs until Shutdown or Kill.
func Start(srv *server.Server, cfg Config) (*Server, error) {
	if cfg.Rebalance != nil && cfg.Locator == nil {
		return nil, errors.New("host: rebalancing requires a fleet locator")
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:      cfg,
		srv:      srv,
		vms:      make(map[uint32]transport.Endpoint),
		rejected: make(map[uint32]time.Time),
		done:     make(chan struct{}),
		started:  make(chan struct{}),
	}
	defer close(s.started)
	vmL, err := listen(cfg.Listen, s.serveConn)
	if err != nil {
		return nil, err
	}
	s.listeners = []*listener{vmL}
	if cfg.Mirror != "" {
		s.mirror = failover.NewMirrorServer()
		mirrorL, err := listen(cfg.Mirror, s.mirror.ServeConn)
		if err != nil {
			vmL.stop()
			return nil, fmt.Errorf("mirror listen: %w", err)
		}
		s.listeners = append(s.listeners, mirrorL)
	}
	if cfg.Locator != nil {
		m := fleet.Member{ID: cfg.ID, Addr: cfg.Advertise, API: cfg.API}
		if m.Addr == "" {
			m.Addr = vmL.addr()
		}
		if m.ID == "" {
			m.ID = m.Addr
		}
		s.id = m.ID
		s.announcer = fleet.StartAnnouncer(cfg.Locator, m, cfg.AnnounceEvery, nil)
		s.announcer.SetSampler(s.sampleLoad)
	}
	if cfg.Rebalance != nil {
		rc := *cfg.Rebalance
		s.schedLog = sched.NewLog()
		rc.From, rc.Log = s.id, s.schedLog
		s.rebalancer = sched.New(rc, s.hostLoads, s.Evict)
		s.rebalancer.Start()
	}
	return s, nil
}

// Addr returns the bound VM listener address.
func (s *Server) Addr() string { return s.listeners[0].addr() }

// MirrorAddr returns the bound mirror listener address ("" when the host
// serves no mirror).
func (s *Server) MirrorAddr() string {
	if s.mirror == nil {
		return ""
	}
	return s.listeners[1].addr()
}

// VMs lists the VMs currently bound to a serving connection, sorted.
func (s *Server) VMs() []uint32 {
	s.mu.Lock()
	out := make([]uint32, 0, len(s.vms))
	for vm := range s.vms {
		out = append(out, vm)
	}
	s.mu.Unlock()
	slices.Sort(out)
	return out
}

// sampleLoad refreshes the announced load signal in place (announcer
// sampler): active VM connections, the summed dispatch backlog, and
// data-plane bytes moved since the previous sample.
func (s *Server) sampleLoad(m *fleet.Member) {
	var queue int
	var bytes uint64
	for _, vm := range s.srv.Snapshot() {
		queue += vm.QueueDepth
		bytes += vm.Stats.BytesIn + vm.Stats.BytesOut
	}
	m.QueueDepth = queue
	s.mu.Lock()
	m.Load = len(s.vms)
	// A VM's counters restart with each incarnation, so the sum can dip;
	// the previous figure then stands for one more interval.
	if bytes >= s.prevBytes {
		m.BytesInFlight = bytes - s.prevBytes
	}
	s.prevBytes = bytes
	s.mu.Unlock()
}

// hostLoads is the self-evict rebalancer's load source: the fleet's
// announced view, with this host's member joined to the VMs it serves.
// Peers' VM lists stay empty — the From restriction means only the local
// host ever sheds, and announced loads alone rank the targets.
func (s *Server) hostLoads() []sched.HostLoad {
	ms, err := s.cfg.Locator.Live(s.cfg.API)
	if err != nil {
		return nil
	}
	out := make([]sched.HostLoad, 0, len(ms))
	for _, m := range ms {
		hl := sched.HostLoad{Member: m}
		if m.ID == s.id {
			hl.VMs = s.VMs()
		}
		out = append(out, hl)
	}
	return out
}

// Evict is the self-evict migration hook: refuse the VM's reconnects for
// rejectTTL, sever its serving connection so the guardian recovers
// cross-host (wire replay onto whichever lighter peer its dialer picks —
// target is advisory; the guest-side ranking makes the final call), and
// push the lightened load immediately so admission-time placement stops
// steering new VMs here even if the old connection is slow to die.
func (s *Server) Evict(vm uint32, target string) error {
	s.mu.Lock()
	ep, ok := s.vms[vm]
	if ok {
		s.rejected[vm] = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("vm %d not connected", vm)
	}
	s.cfg.Log.Printf("evicting VM %d (advisory target %q)", vm, target)
	transport.Sever(ep)
	s.announceNow()
	return nil
}

// bind records ep as vm's serving connection. A VM inside its
// post-eviction refusal window is not bound; evictedFor is then how long
// ago it was evicted.
func (s *Server) bind(vm uint32, ep transport.Endpoint) (evictedFor time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at, rejected := s.rejected[vm]; rejected {
		if age := time.Since(at); age <= rejectTTL {
			return age, false
		}
		delete(s.rejected, vm)
	}
	s.vms[vm] = ep
	return 0, true
}

func (s *Server) unbind(vm uint32, ep transport.Endpoint) {
	s.mu.Lock()
	if s.vms[vm] == ep {
		delete(s.vms, vm)
	}
	s.mu.Unlock()
}

// announceNow pushes the current load signal immediately, so placement
// never steers against a stale pre-departure load.
func (s *Server) announceNow() {
	if s.announcer != nil {
		s.announcer.AnnounceNow()
	}
}

// serveConn reads the VM-identification hello, answers it with the
// admission verdict, and serves the VM until the connection ends. A first
// frame that is not a hello — or none within the control time bound — ends
// the connection before any VM is touched.
func (s *Server) serveConn(ep transport.Endpoint) {
	defer ep.Close()
	<-s.started
	hello, err := transport.RecvCtl(ep)
	if err == nil && hello.Op != transport.OpHello {
		err = fmt.Errorf("%v on a VM connection", hello.Op)
	}
	if err != nil {
		s.cfg.Log.Printf("bad hello: %v", err)
		return
	}
	vm, epoch, name := hello.VM, uint32(hello.Seq), string(hello.Payload)
	if name == "" {
		name = fmt.Sprintf("tcp-vm%d", vm)
	}
	if age, ok := s.bind(vm, ep); !ok {
		// Freshly evicted: refuse with an explicit reject ack, so the
		// rejection is a dial *failure* that spends the guardian's per-host
		// budget and moves it to a peer, instead of a silent
		// connect-then-sever it retries forever.
		age = age.Round(time.Millisecond)
		s.cfg.Log.Printf("VM %d refused (evicted %v ago)", vm, age)
		transport.Ack(ep, hello, fmt.Errorf("vm %d evicted %v ago, rebalancing", vm, age))
		return
	}
	defer s.announceNow()
	defer s.unbind(vm, ep)
	if err := transport.Ack(ep, hello, nil); err != nil {
		return
	}
	// The context is dropped at bind, never at disconnect. Every connection
	// is one server incarnation for its VM, so the guardian's replay lands
	// in an empty handle table (a reconnect to the same live host would
	// otherwise hit "handle already bound"), and a VM whose connection died
	// keeps its counters scrapeable until its next incarnation arrives.
	s.srv.DropContext(vm)
	ctx := s.srv.Context(vm, name)
	s.cfg.Log.Printf("VM %d (%s) connected, epoch %d", vm, name, epoch)
	// The stats summary is emitted however the connection ends and tagged
	// with the reason, so a SIGKILLed guest's byte counters land in the
	// log as well as staying live on the ctl endpoint.
	reason := "orderly"
	if err := s.srv.ServeVM(ctx, ep); err != nil {
		reason = "error"
		if errors.Is(err, transport.ErrSevered) {
			reason = "severed"
		}
		s.cfg.Log.Printf("VM %d: %v", vm, err)
	}
	st := ctx.Stats()
	s.cfg.Log.Printf("VM %d stats: calls=%d (async %d, errors %d, replays %d) bytes in=%d out=%d copied=%d exec=%v run=%v",
		vm, st.Calls, st.AsyncCalls, st.Errors, st.Replays,
		st.BytesIn, st.BytesOut, st.BytesCopied, st.ExecTime, st.RunTime)
	s.cfg.Log.Printf("VM %d disconnected (%s)", vm, reason)
}

// Shutdown runs the graceful sequence and returns once every connection
// has ended: stop accepting, leave the fleet so no guardian is steered
// here, wait out in-flight connections under the drain budget, then close
// stragglers in order. Only the first Shutdown or Kill acts; later calls
// wait for it.
func (s *Server) Shutdown() { s.stop(false) }

// Kill stops the host the way a SIGKILL of its process would: nothing is
// drained, every connection dies mid-stream, and the fleet learns of the
// death only afterwards. The deregistration stands in for TTL expiry, and
// comes last because a crash does not wait for the control plane: against
// a replicated registry with a dead replica, the deregister fan-out can
// block for that replica's whole retry budget.
func (s *Server) Kill() { s.stop(true) }

func (s *Server) stop(kill bool) {
	s.stopOnce.Do(func() {
		defer close(s.done)
		budget := s.cfg.Drain
		for _, l := range s.listeners {
			l.stop()
			if kill {
				l.severAll()
				budget = 0
			}
		}
		if s.rebalancer != nil {
			s.rebalancer.Close()
		}
		if s.announcer != nil {
			s.announcer.Close()
		}
		if n := s.listeners[0].drain(budget); n > 0 && !kill {
			s.cfg.Log.Printf("drain budget spent, closed %d lingering connection(s)", n)
		}
		for _, l := range s.listeners[1:] {
			l.drain(0) // replication streams never end on their own
		}
	})
	<-s.done
}

// Wait blocks until a Shutdown or Kill has completed.
func (s *Server) Wait() { <-s.done }

// CtlConfig wires a control endpoint over the host's live state: the
// server's per-VM contexts, the fleet's live peer view when announced,
// the rebalancer and mirror when enabled, and a drain hook running the
// same sequence as Shutdown.
func (s *Server) CtlConfig() ctlplane.Config {
	cfg := ctlplane.Config{
		Ident:  ctlplane.Ident{Service: "avad", ID: s.id, API: s.cfg.API, Addr: s.Addr()},
		Server: ctlplane.ServerSource(s.srv),
		Drain: func() error {
			s.cfg.Log.Printf("ctl drain requested (budget %v)", s.cfg.Drain)
			go s.Shutdown()
			return nil
		},
	}
	if loc := s.cfg.Locator; loc != nil {
		cfg.Fleet = func() []fleet.Status {
			ms, err := loc.Live(s.cfg.API)
			if err != nil {
				return nil
			}
			out := make([]fleet.Status, len(ms))
			for i, m := range ms {
				out[i] = fleet.Status{Member: m, Live: true}
			}
			return out
		}
	}
	if s.rebalancer != nil {
		cfg.Sched = s.schedLog.Decisions
		cfg.Rebalance = func() (int, error) { return s.rebalancer.Kick(), nil }
		cfg.RebalanceStats = s.rebalancer.Stats
	}
	if s.mirror != nil {
		cfg.Mirror = s.mirror.Snapshot
	}
	return cfg
}

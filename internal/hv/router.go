package hv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ava/internal/averr"
	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// VMID identifies a guest VM.
type VMID = uint32

// VMConfig is the per-VM sharing policy, part of the API specification's
// "resource usage policy and scheduling configuration" (§3).
type VMConfig struct {
	ID   VMID
	Name string
	// CallsPerSec rate-limits forwarded commands (0 = unlimited).
	CallsPerSec float64
	CallBurst   float64
	// BytesPerSec rate-limits forwarded data (0 = unlimited).
	BytesPerSec float64
	ByteBurst   float64
	// Weight is the VM's fair-share weight (default 1).
	Weight int64
	// Quotas caps the VM's cumulative consumption of named resources from
	// the specification's resource annotations (e.g. "device_memory",
	// "bandwidth"); a call whose estimate would exceed a quota is denied.
	// This is §4.3's administration interface: "control how much of each
	// specified API resource each VM is allotted".
	Quotas map[string]int64
	// PriorityShares splits the VM's call/byte rate into per-priority-band
	// floors (see PriorityBuckets); the zero value selects
	// DefaultPriorityShares. A band within its floor is never delayed by
	// other bands' consumption on the same VM.
	PriorityShares [NumPriorityBands]float64
}

// VMStats counts router activity for one VM.
type VMStats struct {
	Forwarded    uint64
	Denied       uint64
	AsyncDropped uint64
	// DeadlineDenied counts calls denied with StatusDeadline: expired on
	// arrival, or the rate-limit/scheduling stall consumed the remaining
	// budget. Included in Denied.
	DeadlineDenied uint64
	// ShedDenied counts calls denied with StatusOverload by the load
	// shedder. Included in Denied.
	ShedDenied uint64
	// StaleEpochDropped counts frames dropped silently because their epoch
	// predates the VM's current endpoint epoch (failover fencing): they
	// were addressed to a dead server incarnation, and the guest's
	// resubmission supplies the authoritative copy. Not included in Denied.
	StaleEpochDropped uint64
	// HostChanges counts serving-host moves recorded via SetServingHost —
	// the number of cross-host failovers this VM has ridden through.
	HostChanges uint64
	Bytes       uint64
	Stall       time.Duration // time spent rate-limited or unscheduled
	// BandStall splits Stall by the call's priority band, so per-band QoS
	// (low bands absorbing the throttling) is observable.
	BandStall [NumPriorityBands]time.Duration
	Resources map[string]int64 // summed resource estimates
}

// ShedConfig configures the router's load shedder. When any threshold is
// crossed, calls in the lowest priority band (band 0) are denied with
// StatusOverload instead of being stalled toward their deadlines. The
// zero value disables shedding.
type ShedConfig struct {
	// MaxQueueDepth sheds while the scheduler reports at least this many
	// parked calls (0 disables the depth signal; requires a scheduler
	// implementing LoadIntrospector).
	MaxQueueDepth int
	// MaxRecentStall sheds while the recent aggregate admission stall —
	// an EWMA over rate-limit and scheduling delays of admitted calls —
	// is at least this long (0 disables the stall signal).
	MaxRecentStall time.Duration
}

func (sc ShedConfig) enabled() bool {
	return sc.MaxQueueDepth > 0 || sc.MaxRecentStall > 0
}

// Interceptor observes (and may veto) every forwarded call — the
// hypervisor interposition point. Returning a non-nil error denies the
// call.
type Interceptor func(vm VMID, fd *cava.FuncDesc, call *marshal.Call) error

// ErrUnknownVM reports routing for a VM that was never registered — an
// alias of the stack-wide sentinel so errors.Is holds across layers.
var ErrUnknownVM = averr.ErrUnknownVM

type vmState struct {
	cfg    VMConfig
	callTB *PriorityBuckets
	byteTB *PriorityBuckets

	// epoch is the current endpoint epoch; older frames are fenced. Written
	// under mu, read lock-free by the per-call fence check.
	epoch atomic.Uint32

	mu        sync.Mutex
	host      string // fleet member ID currently serving this VM
	hostEpoch uint32 // epoch at the last SetServingHost
	stats     VMStats
	// First router-side denial of an async call since the last synchronous
	// call, held for §4.2's error-deferral contract: async denials cannot
	// be replied to (the guest is not waiting), so the VM's next sync call
	// fails with the recorded status instead of the denial vanishing.
	// hasDeferred mirrors deferredStatus != StatusOK so the admitted path
	// skips the lock when nothing is pending.
	hasDeferred    atomic.Bool
	deferredStatus marshal.Status
	deferredErr    string
}

// deferDenial records the first pending async denial (first wins, like the
// server's deferred-error slot).
func (st *vmState) deferDenial(status marshal.Status, msg string) {
	st.mu.Lock()
	if st.deferredStatus == marshal.StatusOK {
		st.deferredStatus, st.deferredErr = status, msg
		st.hasDeferred.Store(true)
	}
	st.mu.Unlock()
}

// takeDeferred consumes the pending async denial, if any.
func (st *vmState) takeDeferred() (marshal.Status, string, bool) {
	if !st.hasDeferred.Load() {
		return marshal.StatusOK, "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deferredStatus == marshal.StatusOK {
		return marshal.StatusOK, "", false
	}
	status, msg := st.deferredStatus, st.deferredErr
	st.deferredStatus, st.deferredErr = marshal.StatusOK, ""
	st.hasDeferred.Store(false)
	return status, msg, true
}

// Router verifies, polices, schedules and forwards API calls between guest
// libraries and the API server.
type Router struct {
	desc  *cava.Descriptor
	clk   clock.Clock
	sched Scheduler

	mu  sync.Mutex
	vms map[VMID]*vmState
	// intercept and shed are read once per call and replaced whole on the
	// rare write (copy-on-write), so the forwarding path loads a pointer
	// instead of taking mu and copying.
	intercept atomic.Pointer[[]Interceptor]
	shed      atomic.Pointer[ShedConfig]

	// recentStall is the EWMA of admitted calls' rate-limit+sched stall, in
	// nanoseconds; an atomic, so the common stall-free admission into a
	// settled average costs one load and no store.
	recentStall atomic.Int64
}

// SetShedPolicy installs (or, with the zero value, removes) the router's
// load-shedding configuration.
func (r *Router) SetShedPolicy(cfg ShedConfig) { r.shed.Store(&cfg) }

func (r *Router) shedConfig() ShedConfig {
	if sc := r.shed.Load(); sc != nil {
		return *sc
	}
	return ShedConfig{}
}

// noteStall folds one admitted call's stall into the router-wide EWMA the
// load shedder reads (alpha 1/8; stall-free admissions decay it). A fold that
// leaves the average as it was — a zero stall into a zero EWMA, the common
// case — writes nothing.
func (r *Router) noteStall(d time.Duration) {
	for {
		old := r.recentStall.Load()
		next := old + (int64(d)-old)/8
		if next == old || r.recentStall.CompareAndSwap(old, next) {
			return
		}
	}
}

// RecentStall returns the router's recent aggregate admission stall.
func (r *Router) RecentStall() time.Duration { return time.Duration(r.recentStall.Load()) }

// ShedStallThreshold reports the shed-stall threshold in force (0 when the
// stall signal is off).
func (r *Router) ShedStallThreshold() time.Duration { return r.shedConfig().MaxRecentStall }

// overloaded evaluates the shed thresholds against the scheduler's queue
// depth and the recent aggregate stall (the larger of the scheduler's gate
// signal and the router's own rate-limit signal).
func (r *Router) overloaded(sc ShedConfig) bool {
	li, introspective := r.sched.(LoadIntrospector)
	if sc.MaxQueueDepth > 0 && introspective && li.QueueDepth() >= sc.MaxQueueDepth {
		return true
	}
	if sc.MaxRecentStall > 0 {
		stall := r.RecentStall()
		if introspective {
			stall = max(stall, li.RecentStall())
		}
		return stall >= sc.MaxRecentStall
	}
	return false
}

// NewRouter creates a router for one API. A nil scheduler selects FIFO;
// a nil clock selects the wall clock.
func NewRouter(desc *cava.Descriptor, sched Scheduler, clk clock.Clock) *Router {
	if sched == nil {
		sched = NewFIFOScheduler()
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Router{desc: desc, clk: clk, sched: sched, vms: make(map[VMID]*vmState)}
}

// Scheduler returns the router's scheduler.
func (r *Router) Scheduler() Scheduler { return r.sched }

// AddInterceptor installs an observation/veto hook, run for every call in
// installation order.
func (r *Router) AddInterceptor(ic Interceptor) {
	r.mu.Lock()
	next := append(append([]Interceptor(nil), r.interceptors()...), ic)
	r.intercept.Store(&next)
	r.mu.Unlock()
}

// RegisterVM installs a VM's policy state.
func (r *Router) RegisterVM(cfg VMConfig) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.vms[cfg.ID]; dup {
		return fmt.Errorf("%w: hv: VM %d already registered", averr.ErrBadArg, cfg.ID)
	}
	st := &vmState{
		cfg:    cfg,
		callTB: NewPriorityBuckets(cfg.CallsPerSec, cfg.CallBurst, cfg.PriorityShares, r.clk),
		byteTB: NewPriorityBuckets(cfg.BytesPerSec, cfg.ByteBurst, cfg.PriorityShares, r.clk),
	}
	st.stats.Resources = make(map[string]int64)
	r.vms[cfg.ID] = st
	if fs, ok := r.sched.(*FairScheduler); ok {
		fs.SetWeight(cfg.ID, cfg.Weight)
	}
	return nil
}

// SetEpoch advances a VM's endpoint epoch (monotonic — older values are
// ignored). Frames stamped with an epoch below the current one are dropped
// silently: they were addressed to a server incarnation that no longer
// exists, and the guest's epoch-stamped resubmission supplies the
// authoritative copy. The failover guardian calls this before replaying
// state onto a replacement server.
func (r *Router) SetEpoch(id VMID, epoch uint32) {
	st, err := r.vm(id)
	if err != nil {
		return
	}
	st.mu.Lock()
	if epoch > st.epoch.Load() {
		st.epoch.Store(epoch)
	}
	st.mu.Unlock()
}

// SetServingHost records which fleet member now serves a VM's API. On a
// host change it counts the move and defensively re-fences: if the epoch
// has not advanced since the previous host was recorded, the router bumps
// it itself, so frames addressed to the old host can never reach the new
// one even if a buggy dial path forgot to advance the epoch first.
func (r *Router) SetServingHost(id VMID, host string) {
	st, err := r.vm(id)
	if err != nil {
		return
	}
	st.mu.Lock()
	if host != st.host {
		if st.host != "" {
			st.stats.HostChanges++
			if st.epoch.Load() == st.hostEpoch {
				st.epoch.Add(1)
			}
		}
		st.host = host
	}
	st.hostEpoch = st.epoch.Load()
	st.mu.Unlock()
}

// ServingHost returns the fleet member ID recorded as serving the VM (""
// if never recorded).
func (r *Router) ServingHost(id VMID) string {
	st, err := r.vm(id)
	if err != nil {
		return ""
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.host
}

// Epoch returns a VM's current endpoint epoch.
func (r *Router) Epoch(id VMID) uint32 {
	st, err := r.vm(id)
	if err != nil {
		return 0
	}
	return st.epoch.Load()
}

// UnregisterVM removes a VM.
func (r *Router) UnregisterVM(id VMID) {
	r.mu.Lock()
	delete(r.vms, id)
	r.mu.Unlock()
}

// Stats returns a copy of a VM's router statistics.
func (r *Router) Stats(id VMID) (VMStats, error) {
	r.mu.Lock()
	st, ok := r.vms[id]
	r.mu.Unlock()
	if !ok {
		return VMStats{}, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.stats
	out.Resources = make(map[string]int64, len(st.stats.Resources))
	for k, v := range st.stats.Resources {
		out.Resources[k] = v
	}
	return out, nil
}

// VMSnapshot is one VM's router-side view for observability surfaces:
// identity, placement, and a consistent copy of the policy counters.
type VMSnapshot struct {
	ID    VMID
	Name  string
	Host  string // fleet member currently serving this VM ("" = configured endpoint)
	Epoch uint32 // endpoint epoch (bumped per recovery)
	Stats VMStats
}

// Snapshot returns a point-in-time copy of every registered VM's router
// state, sorted by VM ID. Each VM is copied under its own lock, so the
// snapshot is per-VM consistent (not cross-VM atomic) and never blocks
// the data path for longer than one stats copy.
func (r *Router) Snapshot() []VMSnapshot {
	r.mu.Lock()
	ids := make([]VMID, 0, len(r.vms))
	states := make(map[VMID]*vmState, len(r.vms))
	for id, st := range r.vms {
		ids = append(ids, id)
		states[id] = st
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]VMSnapshot, 0, len(ids))
	for _, id := range ids {
		st := states[id]
		st.mu.Lock()
		snap := VMSnapshot{
			ID:    id,
			Name:  st.cfg.Name,
			Host:  st.host,
			Epoch: st.epoch.Load(),
			Stats: st.stats,
		}
		snap.Stats.Resources = make(map[string]int64, len(st.stats.Resources))
		for k, v := range st.stats.Resources {
			snap.Stats.Resources[k] = v
		}
		st.mu.Unlock()
		out = append(out, snap)
	}
	return out
}

func (r *Router) vm(id VMID) (*vmState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVM, id)
	}
	return st, nil
}

// interceptors returns the installed hooks. The slice is immutable —
// AddInterceptor replaces it whole — so callers share it without copying.
func (r *Router) interceptors() []Interceptor {
	if ics := r.intercept.Load(); ics != nil {
		return *ics
	}
	return nil
}

// Attach runs the forwarding loops for one VM: guestSide carries traffic
// to/from the guest library, serverSide to/from the API server. Attach
// blocks until either side closes; it closes both endpoints on return so
// the peer loops unwind.
func (r *Router) Attach(id VMID, guestSide, serverSide transport.Endpoint) error {
	st, err := r.vm(id)
	if err != nil {
		return err
	}
	defer guestSide.Close()
	defer serverSide.Close()

	// Downlink: replies flow back unmodified (the router could interpose
	// here too; stats suffice for now).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer guestSide.Close()
		recycle := spent(serverSide, guestSide)
		for {
			frame, err := serverSide.Recv()
			if err != nil {
				return
			}
			if err := guestSide.Send(frame); err != nil {
				return
			}
			if recycle {
				framebuf.Put(frame)
			}
		}
	}()

	err = r.uplink(id, st, guestSide, serverSide)
	serverSide.Close()
	wg.Wait()
	if errors.Is(err, transport.ErrClosed) {
		return nil
	}
	return err
}

// uplinkScratch is what one VM's uplink loop reuses from frame to frame, so
// a forwarded call allocates nothing in the router. call is the decode target
// of the call being policed: it (and the argument vector behind it) is
// overwritten by the next call, so an Interceptor may read it only for the
// duration of its own invocation.
type uplinkScratch struct {
	call    marshal.Call
	batch   [][]byte
	forward [][]byte
	est     []int64
}

// spent reports whether a frame received from one endpoint and sent on to
// another is the router's to recycle afterwards: it arrived owned (the
// receiver holds the only reference) and the onward Send copied it out. Only
// then can the router prove the ownership framebuf.Put demands; in every
// other pairing the frame is left to the garbage collector.
func spent(from, to transport.Endpoint) bool {
	return transport.RecvOwned(from) && transport.SendCopies(to)
}

func (r *Router) uplink(id VMID, st *vmState, guestSide, serverSide transport.Endpoint) error {
	var sc uplinkScratch
	recycle := spent(guestSide, serverSide)
	for {
		frame, err := guestSide.Recv()
		if err != nil {
			return err
		}
		sc.batch, err = marshal.DecodeBatchInto(sc.batch, frame)
		if err != nil {
			return fmt.Errorf("hv: VM %d sent malformed batch: %w", id, err)
		}
		ics := r.interceptors()
		sc.forward = sc.forward[:0]
		// One arrival reading per frame: every call in it arrived together.
		now := r.clk.Now()
		for _, cf := range sc.batch {
			keep, deny := r.police(id, st, ics, cf, &now, &sc)
			if deny != nil {
				if err := guestSide.Send(marshal.EncodeReply(deny)); err != nil {
					return err
				}
			}
			if keep {
				sc.forward = append(sc.forward, cf)
			}
		}
		switch {
		case len(sc.forward) == 0:
		case len(sc.forward) == len(sc.batch):
			// Fast path: nothing was denied, so the original batch frame
			// can flow onward unmodified (no re-encode copy).
			err = serverSide.Send(frame)
		default:
			err = serverSide.Send(marshal.EncodeBatch(sc.forward))
		}
		if err != nil {
			return err
		}
		// Nothing decoded from the frame outlives this iteration (the
		// scratch call and the forward list are overwritten by the next
		// frame), so a frame the onward Send copied out is free to reuse.
		if recycle {
			framebuf.Put(frame)
		}
	}
}

// reject counts one denied call and turns it into what the guest sees: a
// denial reply for a synchronous call, or — the guest is not waiting for an
// async one — the VM's pending deferred denial, which its next
// synchronization point observes (§4.2).
func (st *vmState) reject(call *marshal.Call, status marshal.Status, format string, args ...any) (bool, *marshal.Reply) {
	msg := fmt.Sprintf(format, args...)
	async := call.Flags&marshal.FlagAsync != 0
	st.mu.Lock()
	st.stats.Denied++
	switch status {
	case marshal.StatusDeadline:
		st.stats.DeadlineDenied++
	case marshal.StatusOverload:
		st.stats.ShedDenied++
	}
	if async {
		st.stats.AsyncDropped++
	}
	st.mu.Unlock()
	if async {
		st.deferDenial(status, msg)
		return false, nil
	}
	return false, &marshal.Reply{Seq: call.Seq, Status: status, Err: msg}
}

// police verifies and schedules one call. It returns keep=true to forward
// the frame, or a denial reply for synchronous calls. Async denials are
// dropped, counted, and recorded as the VM's pending deferred error so the
// next synchronous call surfaces them (§4.2).
//
// *now is the frame's arrival reading, which serves the call's deadline
// translation, both token buckets and the start of its stall. A call the
// router held — it slept out a bucket delay, or the scheduler parked it —
// takes one more reading at its release: the end of its stall, its deadline
// re-check and its admit stamp. That reading replaces *now, since the
// frame's later calls queued behind the held one and arrive at policing
// only then. An unheld call reads no clock at all: its admit stamp is *now
// and its stall is 0. Either way an admitted call takes the VM's lock once,
// for its counters.
func (r *Router) police(id VMID, st *vmState, ics []Interceptor, cf []byte, now *time.Time, sc *uplinkScratch) (keep bool, deny *marshal.Reply) {
	call := &sc.call
	if err := marshal.DecodeCallInto(call, cf); err != nil {
		st.mu.Lock()
		st.stats.Denied++
		st.mu.Unlock()
		return false, nil // unparseable: cannot even address a reply
	}
	async := call.Flags&marshal.FlagAsync != 0

	call.VM = id // the hypervisor, not the guest, asserts identity

	// Epoch fencing (failover): a frame stamped with a pre-recovery epoch
	// was in flight when its server incarnation died. Executing this copy
	// would race the guest's resubmitted twin, so it is dropped with no
	// reply — the twin answers the caller.
	if call.Epoch < st.epoch.Load() {
		st.mu.Lock()
		st.stats.StaleEpochDropped++
		st.mu.Unlock()
		return false, nil
	}

	// §4.2 error deferral for router-side denials: if an earlier async call
	// was denied here, this VM's next synchronous call fails with the
	// recorded status — mirroring the server's deferred-error contract so
	// async denials never vanish into a counter. Replayed and resubmitted
	// calls are exempt: migration restore and failover recovery must not
	// absorb a pre-restore denial.
	exempt := call.Flags&(marshal.FlagReplay|marshal.FlagResubmit) != 0
	if !async && !exempt {
		if status, msg, pending := st.takeDeferred(); pending {
			st.mu.Lock()
			st.stats.Denied++
			st.mu.Unlock()
			return false, &marshal.Reply{
				Seq:    call.Seq,
				Status: status,
				Err:    "deferred: " + msg,
			}
		}
	}

	fd, ok := r.desc.ByID(call.Func)
	if !ok {
		return st.reject(call, marshal.StatusDenied, "hv: unknown function #%d", call.Func)
	}

	// Deadline translation (gRPC-style): the wire deadline is absolute on
	// the guest's clock, which need not agree with ours (TCP transports can
	// cross machines). The remaining budget — deadline minus the guest's
	// encode stamp — is clock-skew-free, so re-anchor it against our own
	// clock and deny outright if it is already spent. A call with a
	// deadline but no encode stamp offers nothing to translate against:
	// anchor it at admission on our clock instead of misreading the raw
	// guest wall-clock value as a relative budget.
	arrival := *now
	var localDeadline time.Time
	if call.Deadline != 0 {
		var rel time.Duration
		if call.Stamps.Encode != 0 {
			rel = time.Duration(call.Deadline - call.Stamps.Encode)
		} else {
			rel = time.Duration(call.Deadline - arrival.UnixNano())
		}
		if rel <= 0 {
			return st.reject(call, marshal.StatusDeadline, "hv: %s: deadline expired before admission", fd.Name)
		}
		localDeadline = arrival.Add(rel)
	}
	if len(call.Args) != len(fd.Params) {
		return st.reject(call, marshal.StatusDenied, "hv: %s: argument arity %d, want %d", fd.Name, len(call.Args), len(fd.Params))
	}
	if async {
		if sync, err := fd.IsSync(r.desc.API, call.Args); err != nil || sync {
			return st.reject(call, marshal.StatusDenied, "hv: %s: async forwarding violates specification", fd.Name)
		}
	}
	for _, ic := range ics {
		if err := ic(id, fd, call); err != nil {
			return st.reject(call, marshal.StatusDenied, "hv: %s: %v", fd.Name, err)
		}
	}

	// Policy enforcement. Replayed calls (migration restore) and
	// resubmitted calls (failover recovery) bypass rate limits and quota
	// charging: they reconstruct state the guest already paid for once.
	sc.est = fd.EstimateResources(r.desc.API, call.Args, sc.est)
	est := sc.est
	if len(st.cfg.Quotas) > 0 && len(est) > 0 && !exempt {
		if res, limit, used := st.quotaExceeded(fd, est); res != "" {
			return st.reject(call, marshal.StatusDenied, "hv: %s: %s quota exhausted (%d of %d used)", fd.Name, res, used, limit)
		}
	}
	// admit is the arrival reading unless the call was held; exempt calls
	// are never scheduled, so theirs always is.
	admit := arrival
	var stall time.Duration
	band := PriorityBand(call.Priority)
	if !exempt {
		// Load shedding: under overload, deny sheddable (lowest-band) calls
		// immediately with StatusOverload rather than stalling them toward
		// their deadlines — admission-time backpressure the caller can see.
		if shed := r.shedConfig(); shed.enabled() && band == 0 && r.overloaded(shed) {
			return st.reject(call, marshal.StatusOverload, "hv: %s: shed under overload (priority band %d)", fd.Name, band)
		}
		// Reserve both buckets up front and sleep once for the larger
		// delay: the two limits overlap in time rather than compounding.
		delay := st.callTB.reserveAt(arrival, band, 1)
		if d := st.byteTB.reserveAt(arrival, band, float64(len(cf))); d > delay {
			delay = d
		}
		if delay > 0 {
			r.clk.Sleep(delay)
		}
		cost := int64(1)
		if i := fd.ResourceIndex("device_time"); i >= 0 && est[i] > 0 {
			cost = est[i]
		}
		parked := r.sched.Admit(id, cost, call.Priority)
		r.sched.Done(id, cost, 0)
		if delay > 0 || parked {
			admit = r.clk.Now()
			stall = admit.Sub(arrival)
			*now = admit
		}
		r.noteStall(stall)
	}

	// The stall was spent inside the deadline's budget: a call held back
	// past its deadline by rate limiting or scheduling must not reach the
	// silo. An unheld call's admit is the arrival reading, which the
	// deadline translation above already found inside its budget.
	late := !localDeadline.IsZero() && !admit.Before(localDeadline)

	st.mu.Lock()
	st.stats.Stall += stall
	st.stats.BandStall[band] += stall
	if !late {
		st.stats.Forwarded++
		st.stats.Bytes += uint64(len(cf))
		if !exempt {
			for i, v := range est {
				st.stats.Resources[fd.Resources[i].Resource] += v
			}
		}
	}
	st.mu.Unlock()
	if late {
		return st.reject(call, marshal.StatusDeadline, "hv: %s: deadline expired while stalled %v", fd.Name, stall)
	}

	// Rewrite the forwarded header in place — VM identity, the deadline
	// re-anchored into this router's clock domain, and the admission stamp
	// — so the zero-copy batch fast path still forwards the original frame.
	var wireDeadline int64
	if !localDeadline.IsZero() {
		wireDeadline = localDeadline.UnixNano()
	}
	marshal.PatchCallAdmit(cf, id, wireDeadline, admit.UnixNano())
	return true, nil
}

// quotaExceeded checks whether charging est (fd's resource estimates, by
// descriptor index) would push any quota'd resource over its allotment; the
// accumulated usage lives in stats.Resources, so denied calls are not
// charged.
func (st *vmState) quotaExceeded(fd *cava.FuncDesc, est []int64) (resource string, limit, used int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, amount := range est {
		res := fd.Resources[i].Resource
		lim, ok := st.cfg.Quotas[res]
		if !ok {
			continue
		}
		if st.stats.Resources[res]+amount > lim {
			return res, lim, st.stats.Resources[res]
		}
	}
	return "", 0, 0
}

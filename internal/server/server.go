package server

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
	"ava/internal/spec"
	"ava/internal/transport"
)

// ErrDeviceOOM is the sentinel silo handlers wrap when the device is out of
// memory. The dispatcher gives the configured OOM policy (the buffer-object
// swap manager, §4.3) one chance to make room and retries once.
var ErrDeviceOOM = errors.New("server: device out of memory")

// Aliases of the stack-wide sentinels (internal/averr): a handler that
// observes inv.Done() returns inv.Err(), which is one of these, and the
// dispatcher maps them onto StatusDeadline / StatusCanceled replies.
var (
	ErrDeadlineExceeded = averr.ErrDeadlineExceeded
	ErrCanceled         = averr.ErrCanceled
)

// Handler executes one API call against the silo.
type Handler func(inv *Invocation) error

// Registry binds a Descriptor's functions to silo handlers.
type Registry struct {
	Desc     *cava.Descriptor
	handlers []Handler
	// OnOOM, if set, is invoked when a handler fails with ErrDeviceOOM;
	// returning true retries the call once.
	OnOOM func(ctx *Context, fd *cava.FuncDesc) bool
	// Adapter is how the API's objects are captured and restored: the one
	// object-state contract behind migration, guardian checkpoints and the
	// FuncSnapshot/FuncRestore control calls. An API binding's BindServer
	// installs its own; a registry without one declares every object
	// stateless (replay alone rebuilds it).
	Adapter Adapter
	// release gives one object back to the silo through its type's
	// destructor; the generated Register installs it (SetRelease), and a
	// context calls it for what its table still holds when its incarnation
	// ends. nil: nothing to give back.
	release func(ctx *Context, obj any)
}

// Adapter supplies the silo-specific object-state operations the recovery
// engines cannot perform generically. Contexts of a server read it off the
// registry (Context.SnapshotObjects, RestoreObject); nothing else calls it.
type Adapter interface {
	// SnapshotObject drains an object's dirty-range tracking into a delta:
	// the ranges written since the previous capture, or — when full is
	// set, the tracking overflowed, or an untracked write touched the
	// object — one Full delta holding its whole state. Either way the
	// object's watermark moves to now. The delta's Handle is left zero;
	// the caller keys it. stateful=false means replay alone fully
	// reconstructs the object.
	SnapshotObject(obj any, full bool) (delta marshal.ObjectDelta, stateful bool, err error)
	// RestoreObject writes captured state back into the re-created object.
	RestoreObject(obj any, state []byte) error
}

// NewRegistry creates an empty registry for d.
func NewRegistry(d *cava.Descriptor) *Registry {
	return &Registry{Desc: d, handlers: make([]Handler, len(d.Funcs))}
}

// Register installs the handler for a named function.
func (r *Registry) Register(name string, h Handler) error {
	fd, ok := r.Desc.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: server: register %q: no such function in %s", averr.ErrBadArg, name, r.Desc.Name)
	}
	if r.handlers[fd.ID] != nil {
		return fmt.Errorf("%w: server: register %q: already registered", averr.ErrBadArg, name)
	}
	r.handlers[fd.ID] = h
	return nil
}

// MustRegister is Register for silo bindings shipped in the binary.
func (r *Registry) MustRegister(name string, h Handler) {
	if err := r.Register(name, h); err != nil {
		panic(err)
	}
}

// SetRelease installs the release of objects an ended incarnation still
// holds. The generated Register calls it; its switch over the handle types
// is the specification's destructors, so no binding writes one.
func (r *Registry) SetRelease(release func(ctx *Context, obj any)) { r.release = release }

// Unregistered returns the names of functions without handlers, for
// completeness checks in silo binding tests.
func (r *Registry) Unregistered() []string {
	var out []string
	for i, h := range r.handlers {
		if h == nil {
			out = append(out, r.Desc.Funcs[i].Name)
		}
	}
	return out
}

// Stats counts per-VM server activity.
type Stats struct {
	Calls      uint64
	AsyncCalls uint64
	Errors     uint64
	Replays    uint64
	BytesIn    uint64
	BytesOut   uint64
	// ExecTime is the handler time of the calls timed on their own,
	// dispatch to handler return: sync calls, calls with a deadline and
	// every call run by Execute or ExecuteFrame. RunTime is the time of the
	// rest, the deadline-free async calls ServeVM runs: each run of them is
	// timed as one span, from the reading that opened it to the one that
	// closed it before the goroutine waited on anything, so RunTime also
	// covers the server's own work between their handlers (decode, prepare,
	// accounting). ExecTime+RunTime is all the time the VM's calls spent
	// executing.
	ExecTime time.Duration
	RunTime  time.Duration
	// BytesCopied counts buffer payload bytes moved by copy in either
	// direction: in/inout payloads that arrived inline in call frames,
	// plus out/inout payloads returned inline in reply frames. Each
	// direction of an inout buffer is a separate copy and counts once.
	// BytesBorrowed counts payload bytes that took a zero-copy path
	// instead — registered-buffer references resolved against the shared
	// region, whether the call read the region in place or wrote its
	// output into it. The per-VM mirror of the guest library's counters,
	// for the copycost (E14) breakdown.
	BytesCopied   uint64
	BytesBorrowed uint64
	// DeadlineAborts counts calls ended with StatusDeadline: expired at
	// dispatch, aborted in flight through the cancellation signal, or
	// finished only after their budget was spent. CanceledCalls counts
	// StatusCanceled aborts. Both are included in Errors.
	DeadlineAborts uint64
	CanceledCalls  uint64
	// AdmitToDispatch accumulates router-admit → server-dispatch latency
	// over the calls timed on their own (see ExecTime) that carry an admit
	// stamp (on cross-machine transports the clock skew between router and
	// server folds into this stage). A run-timed call has no dispatch
	// reading of its own, so it adds nothing.
	AdmitToDispatch time.Duration
}

// Context is the per-VM execution context inside the API server, and one
// incarnation of that VM's server: ServeVM serves it on one endpoint, and
// when the incarnation ends — ServeVM returns, or a context that was never
// served is dropped — every object its handle table still holds is given
// back to the silo through the registry's release. The counters outlive
// it, for observers, until the context is dropped.
type Context struct {
	VM      uint32
	Name    string
	Handles *HandleTable

	mu       sync.Mutex
	deferred string // pending async-error note (§4.2 error deferral)
	stats    Stats
	stable   map[any]marshal.Handle // InsertStable's object→handle cache
	ep       transport.Endpoint     // the endpoint ServeVM serves, once it has begun
	served   chan struct{}          // closed when that ServeVM has returned
	dropped  bool                   // DropContext has ended the incarnation

	// queued gauges the ServeVM dispatch backlog: tasks handed to a
	// worker queue and not yet executed (a worker drops a call from it once
	// the handler has run, before sending the reply). Atomic (not under
	// mu) so the hot enqueue path never contends with stats readers.
	queued atomic.Int64

	clk clock.Clock
	reg *Registry // the owning server's, for its Adapter
}

// SetClock overrides the context's time source (tests).
func (c *Context) SetClock(clk clock.Clock) { c.clk = clk }

// Stats returns a copy of the context's counters.
func (c *Context) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// QueueDepth reports the current ServeVM dispatch backlog: calls handed
// to a worker queue (or blocked entering one) that have not yet executed.
// Zero for contexts driven through Execute directly.
func (c *Context) QueueDepth() int { return int(c.queued.Load()) }

// DeferredError returns and clears the pending async-error note.
func (c *Context) DeferredError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.deferred
	c.deferred = ""
	return d
}

// HandlePair relates the handle a re-executed call just produced (Fresh) to
// the value its original execution gave the guest (Recorded).
type HandlePair struct{ Fresh, Recorded marshal.Handle }

// Rebind moves every object in pairs from its fresh handle to its recorded
// one, so the handle values the guest already holds stay valid after a
// replay. It is the one place a handle table is rebuilt under guest-held
// values, reached only through the FuncRebind control call, which the
// replay of a recovery or migration and the guardian's post-watermark
// rebind both send.
//
// Two phases — remove every fresh handle, then insert every recorded one —
// so fresh values that collide with recorded values within one reply cannot
// shadow each other. All or nothing: a vanished fresh handle or an occupied
// recorded slot puts every object back under its fresh handle and returns
// an error, which replay treats as fatal and the guardian's post-watermark
// rebind as best-effort (server state stays consistent either way).
func (c *Context) Rebind(pairs []HandlePair) error {
	objs := make([]any, 0, len(pairs))
	undo := func(inserted int, err error) error {
		for _, p := range pairs[:inserted] {
			c.Handles.Remove(p.Recorded)
		}
		for i, obj := range objs {
			// Cannot collide: this is the slot the object was just removed
			// from, and Insert never hands out a value twice.
			_ = c.Handles.InsertAt(pairs[i].Fresh, obj)
		}
		return err
	}
	for _, p := range pairs {
		obj, ok := c.Handles.Remove(p.Fresh)
		if !ok {
			return undo(0, fmt.Errorf("server: rebind: replayed handle %d vanished", p.Fresh))
		}
		objs = append(objs, obj)
	}
	for i, p := range pairs {
		if err := c.Handles.InsertAt(p.Recorded, objs[i]); err != nil {
			return undo(i, fmt.Errorf("server: rebind %d->%d: %w", p.Fresh, p.Recorded, err))
		}
	}
	return nil
}

// SnapshotObjects captures every stateful object in the handle table
// through the registry's Adapter, keyed by guest handle: the FuncSnapshot
// control call, a guardian checkpoint's capture (and so migration's). With
// full unset each delta holds the ranges written since the previous
// capture, for the caller to compose onto the states it holds from it
// (marshal.ApplyObjectDelta); with full set every object is Full. Without
// an Adapter there is no object state, so the empty set is exact.
func (c *Context) SnapshotObjects(full bool) (deltas []marshal.ObjectDelta, err error) {
	ad := c.reg.Adapter
	if ad == nil {
		return nil, nil
	}
	c.Handles.ForEach(func(h marshal.Handle, obj any) {
		if err != nil {
			return
		}
		d, stateful, serr := ad.SnapshotObject(obj, full)
		if serr != nil {
			err = fmt.Errorf("snapshot handle %d: %w", h, serr)
		} else if stateful {
			d.Handle = h
			deltas = append(deltas, d)
		}
	})
	return deltas, err
}

// RestoreObject overwrites the stateful payload of the object under h from a
// snapshot. found=false: no such handle (the object was destroyed after the
// snapshot was cut), which is the caller's to judge.
func (c *Context) RestoreObject(h marshal.Handle, state []byte) (found bool, err error) {
	obj, ok := c.Handles.Get(h)
	if !ok {
		return false, nil
	}
	if c.reg.Adapter == nil {
		return true, errors.New("server: the registry declares no object state (no Adapter)")
	}
	return true, c.reg.Adapter.RestoreObject(obj, state)
}

// Server executes forwarded calls for a set of VM contexts.
type Server struct {
	reg  *Registry
	breg *transport.BufRegistry // nil unless SetBufRegistry

	mu   sync.Mutex
	ctxs map[uint32]*Context
}

// New creates a server over a silo registry.
func New(reg *Registry) *Server {
	return &Server{reg: reg, ctxs: make(map[uint32]*Context)}
}

// Registry returns the silo registry.
func (s *Server) Registry() *Registry { return s.reg }

// SetBufRegistry wires the stack's shared registered-buffer registry: calls
// carrying marshal.KindRegRef arguments resolve them against it, reading
// and writing the guest's registered region in place. Only meaningful when
// guest and server share an address space (the stack assembler wires it for
// InProc and shm-ring transports, never TCP); without one, regref calls are
// denied. Set before serving begins.
func (s *Server) SetBufRegistry(r *transport.BufRegistry) { s.breg = r }

// Context returns (creating on first use) the per-VM context.
func (s *Server) Context(vm uint32, name string) *Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.ctxs[vm]; ok {
		return c
	}
	c := &Context{VM: vm, Name: name, Handles: NewHandleTable(), clk: clock.NewReal(), reg: s.reg}
	s.ctxs[vm] = c
	return c
}

// Lookup returns the per-VM context if one exists, nil otherwise: the
// accessor for observers, which must not plant a context by asking.
func (s *Server) Lookup(vm uint32) *Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctxs[vm]
}

// DropContext removes a VM's context and ends its incarnation: it closes
// the endpoint the context is served on, if ServeVM has begun, and waits
// for that ServeVM to return, which releases what the table holds; a
// context never served has its table released here. When DropContext
// returns, nothing the VM held is left in the silo — so a replacement
// incarnation's replayed open of an exclusive device finds it free, and a
// link that went deaf without closing (a reconnect racing the old
// connection's Recv) is cut rather than waited out.
func (s *Server) DropContext(vm uint32) {
	s.mu.Lock()
	c := s.ctxs[vm]
	delete(s.ctxs, vm)
	s.mu.Unlock()
	if c == nil {
		return
	}
	c.mu.Lock()
	c.dropped = true
	ep, served := c.ep, c.served
	c.mu.Unlock()
	if ep == nil {
		c.releaseAll()
		return
	}
	ep.Close()
	<-served
}

// serve claims the context for ServeVM on ep: false for a context already
// served or dropped, since a context is one incarnation.
func (c *Context) serve(ep transport.Endpoint) (served chan struct{}, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ep != nil || c.dropped {
		return nil, false
	}
	c.ep, c.served = ep, make(chan struct{})
	return c.served, true
}

// releaseAll takes every entry out of the handle table, newest handle
// first — an object goes before those it was made from — and gives each to
// the registry's release once.
func (c *Context) releaseAll() {
	hs := c.Handles.Handles()
	for i := len(hs) - 1; i >= 0; i-- {
		if obj, ok := c.Handles.Remove(hs[i]); ok && c.reg.release != nil {
			c.reg.release(c, obj)
		}
	}
}

// VMSnapshot is one VM's server-side view for observability surfaces.
// Counters are read live from the context, so a snapshot taken after a
// connection died still carries everything the VM did — stats do not
// wait for an orderly disconnect.
type VMSnapshot struct {
	VM         uint32
	Name       string
	QueueDepth int // current dispatch backlog (see Context.QueueDepth)
	Stats      Stats
}

// Snapshot returns a point-in-time copy of every known VM context,
// sorted by VM ID. Each context is copied under its own lock.
func (s *Server) Snapshot() []VMSnapshot {
	s.mu.Lock()
	ctxs := make([]*Context, 0, len(s.ctxs))
	for _, c := range s.ctxs {
		ctxs = append(ctxs, c)
	}
	s.mu.Unlock()
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i].VM < ctxs[j].VM })

	out := make([]VMSnapshot, 0, len(ctxs))
	for _, c := range ctxs {
		out = append(out, VMSnapshot{
			VM:         c.VM,
			Name:       c.Name,
			QueueDepth: c.QueueDepth(),
			Stats:      c.Stats(),
		})
	}
	return out
}

// callSlot is the per-call record of the dispatch path: the decoded call,
// the Invocation handed to the handler (with its working argument copy and
// out slots), the reply, and — under ServeVM — the call's place in the
// ordering scheme. One slot replaces the six to nine heap objects a call
// used to cost. Slots are pooled; ownership rules:
//
//   - a slot belongs to exactly one call from getSlot to release, and
//     release happens only after the reply has been encoded (the reply's
//     values alias the slot and the batch frame) and the frame reference
//     dropped;
//   - nothing outside the dispatch path keeps a pointer into a slot: the
//     handler's claim on the Invocation ends when it returns;
//   - a call that armed a deadline timer leaves its Invocation behind for
//     the timer (release drops it instead of reusing it), since the timer
//     may still fire after the call;
//   - an out buffer prepare drew from framebuf, and a control reply's
//     payload, belong to the slot until release, which recycles them: by
//     then the handler has returned and the reply encoder has copied what
//     the reply carries. Execute's private slot is never released and an armed
//     Invocation is dropped whole, so neither ever recycles (a missed Put
//     falls to the GC).
type callSlot struct {
	call    marshal.Call
	reply   marshal.Reply
	outs    []marshal.Value // backing array of reply.Outs
	inv     *Invocation     // nil until first use and after an armed call
	regions [][]byte        // resolved out-direction regrefs, by parameter index
	ctl     []byte          // a control reply's pooled payload (executeControl)

	// ServeVM only.
	segs   []marshal.Segment // the reply's borrowed outputs, while it is sent
	fr     *frameRef
	wire   int // encoded length of the call
	worker int
	ticket uint64               // position in the worker's queue (1-based)
	need   [ServeWorkers]uint64 // per worker: completions this call waits for
	retire uint64               // handle whose ordering entries end with this call
}

var slotPool = sync.Pool{New: func() any { return new(callSlot) }}

func getSlot() *callSlot { return slotPool.Get().(*callSlot) }

// release returns the slot to the pool. References into frames, regions and
// handler buffers are cleared so a parked slot pins none of them.
func (sl *callSlot) release() {
	if sl.inv != nil {
		if sl.inv.armed() {
			sl.inv = nil
		} else {
			sl.inv.recycleOuts()
			clear(sl.inv.args)
			sl.inv.Ctx = nil
		}
	}
	clear(sl.call.Args)
	clear(sl.outs)
	clear(sl.regions)
	framebuf.Put(sl.ctl)
	sl.ctl = nil
	sl.reply = marshal.Reply{}
	sl.fr = nil
	slotPool.Put(sl)
}

// Execute runs one decoded call and returns the reply, or nil for
// asynchronously forwarded calls (which get no reply). The reply belongs to
// the caller: Execute works in a slot of its own that is never pooled.
func (s *Server) Execute(ctx *Context, call *marshal.Call) *marshal.Reply {
	sl := &callSlot{call: *call}
	if s.run(ctx, sl, 0, nil) == 0 {
		return nil
	}
	return &sl.reply
}

// ExecuteFrame decodes and executes one encoded call frame, returning the
// encoded reply in a buffer the caller owns (nil for asynchronously
// forwarded calls).
func (s *Server) ExecuteFrame(ctx *Context, frame []byte) ([]byte, error) {
	sl := getSlot()
	defer sl.release()
	if err := marshal.DecodeCallInto(&sl.call, frame); err != nil {
		return nil, err
	}
	if s.run(ctx, sl, len(frame), nil) == 0 {
		return nil, nil
	}
	return marshal.EncodeReply(&sl.reply), nil
}

// runClock times one goroutine's run: the calls it executes between two
// readings without waiting on anything in between. A call that needs
// readings of its own — a sync call, whose reply carries Stamps.Dispatch and
// Done, or a call with a deadline — takes one at dispatch, which closes the
// run, and one at handler return, which opens the next. A deadline-free
// async call takes none: its dispatch is the reading that opened the run
// (taken then if no run is open), and its handler time is charged when the
// run closes. The goroutine closes its run before it waits on anything, so
// no wait is charged. Each of ServeVM's goroutines owns one.
type runClock struct {
	start time.Time // the reading that opened the run; zero: no run is open
	open  bool      // async calls ran in the run, their time not yet charged
}

// closeRun ends the goroutine's run, charging its span to RunTime with one
// reading if async calls ran in it.
func (c *Context) closeRun(rc *runClock) {
	if rc.open {
		span := c.clk.Now().Sub(rc.start)
		c.mu.Lock()
		c.stats.RunTime += span
		c.mu.Unlock()
	}
	*rc = runClock{}
}

// add folds one call's counter deltas into the totals.
func (st *Stats) add(d *Stats) {
	st.Calls += d.Calls
	st.AsyncCalls += d.AsyncCalls
	st.Errors += d.Errors
	st.Replays += d.Replays
	st.BytesIn += d.BytesIn
	st.BytesOut += d.BytesOut
	st.ExecTime += d.ExecTime
	st.RunTime += d.RunTime
	st.BytesCopied += d.BytesCopied
	st.BytesBorrowed += d.BytesBorrowed
	st.DeadlineAborts += d.DeadlineAborts
	st.CanceledCalls += d.CanceledCalls
	st.AdmitToDispatch += d.AdmitToDispatch
}

// run is the one dispatch path: it executes sl.call against ctx, leaves the
// outcome in sl.reply, and returns the reply's encoded size — 0 when no
// reply is owed (asynchronously forwarded calls). wire is the encoded length
// of the call when it arrived as a frame (its reply then leaves as one, and
// both are counted in Stats.BytesIn/BytesOut); 0 for Execute. rc is the
// calling goroutine's run, which the call joins or closes; nil times the
// call on its own.
//
// Everything the call contributes to ctx — its counters, an async failure's
// deferred note, a sync reply's pick-up of the pending note — is applied
// under a single acquisition of ctx.mu at the end.
func (s *Server) run(ctx *Context, sl *callSlot, wire int, rc *runClock) int {
	call, rep := &sl.call, &sl.reply
	*rep = marshal.Reply{Seq: call.Seq}
	async := call.Flags&marshal.FlagAsync != 0

	acct := Stats{BytesIn: uint64(wire)}
	var note string // async failure to defer (§4.2)
	s.execute(ctx, sl, async, &acct, rc)
	acct.Calls = 1
	if async {
		acct.AsyncCalls = 1
	}
	if call.Flags&marshal.FlagReplay != 0 {
		acct.Replays = 1
	}
	if rep.Status != marshal.StatusOK {
		acct.Errors = 1
	}
	// Resubmitted asyncs may legitimately fail after a failover (e.g. they
	// raced a destroy of the object they touch); deferring those errors
	// would surface phantom failures for calls that already took effect
	// before the crash.
	if async && call.Flags&marshal.FlagResubmit == 0 {
		if rep.Status != marshal.StatusOK {
			note = fmt.Sprintf("async %s: %s", s.funcName(call.Func), rep.Err)
		} else if s.isFailureRet(call.Func, rep.Ret) {
			note = fmt.Sprintf("async %s: API error %s", s.funcName(call.Func), rep.Ret)
		}
	}

	size := 0
	ctx.mu.Lock()
	if async {
		if note != "" && ctx.deferred == "" {
			ctx.deferred = note
		}
	} else {
		// Piggy-back any deferred async error note on the next sync reply
		// so the guest library can surface it (§4.2: "the error can be
		// delivered from a later API call").
		if rep.Err == "" && ctx.deferred != "" {
			rep.Err = "deferred: " + ctx.deferred
			ctx.deferred = ""
		}
		size = marshal.ReplySize(rep)
		if wire > 0 {
			acct.BytesOut = uint64(size)
		}
	}
	ctx.stats.add(&acct)
	ctx.mu.Unlock()
	return size
}

func (s *Server) funcName(id uint32) string {
	if fd, ok := s.reg.Desc.ByID(id); ok {
		return fd.Name
	}
	return fmt.Sprintf("func#%d", id)
}

func (s *Server) isFailureRet(id uint32, ret marshal.Value) bool {
	fd, ok := s.reg.Desc.ByID(id)
	if !ok || !fd.HasSuccess {
		return false
	}
	switch ret.Kind() {
	case marshal.KindInt:
		return ret.Int() != fd.SuccessVal
	case marshal.KindUint:
		return int64(ret.Uint()) != fd.SuccessVal
	}
	return false
}

// execute verifies and runs sl.call, writing the outcome into sl.reply
// (cleared to a bare StatusOK reply by run) and the call's counter deltas
// into acct. A call timed on its own — a sync call, a call with a deadline,
// any call when rc is nil — reads the clock twice: at dispatch
// (Stamps.Dispatch, the admit→dispatch latency, the deadline anchor), which
// closes the goroutine's run rc, and when the handler returns (Stamps.Done,
// its ExecTime, the late-completion check), which opens the next. A
// deadline-free async call reads it only to open rc when no run is open, and
// leaves its time to the run's close.
func (s *Server) execute(ctx *Context, sl *callSlot, async bool, acct *Stats, rc *runClock) {
	call, rep := &sl.call, &sl.reply
	fail := func(st marshal.Status, format string, args ...any) {
		rep.Status, rep.Err = st, fmt.Sprintf(format, args...)
		rep.Ret, rep.Outs = marshal.Value{}, nil
	}
	if call.Func == marshal.FuncRebind || call.Func == marshal.FuncRestore || call.Func == marshal.FuncSnapshot {
		if rc != nil {
			ctx.closeRun(rc) // a control call is timed by no run
		}
		s.executeControl(ctx, sl)
		return
	}
	fd, ok := s.reg.Desc.ByID(call.Func)
	if !ok {
		fail(marshal.StatusDenied, "unknown function #%d", call.Func)
		return
	}
	h := s.reg.handlers[fd.ID]
	if h == nil {
		fail(marshal.StatusInternal, "%s: no handler registered", fd.Name)
		return
	}
	// A guest may only use async forwarding where the spec allows it.
	if async {
		if sync, err := fd.IsSync(s.reg.Desc.API, call.Args); err != nil || sync {
			fail(marshal.StatusDenied, "%s: async forwarding not permitted by specification", fd.Name)
			return
		}
	}

	// Data-plane accounting and registered-buffer resolution. Inline
	// in-buffer payloads were marshalled by copy through the frame; a
	// KindRegRef argument instead references a region the guest registered
	// in the shared BufRegistry, and is resolved in place here — reads
	// alias the region, out-direction writes land in it directly and the
	// reply carries only a length. Resolution rewrites call.Args to the
	// materialized bytes (in) or the plain length placeholder (out).
	regions := sl.regions[:0]
	for i := range call.Args {
		v := &call.Args[i]
		switch v.Kind() {
		case marshal.KindBytes:
			acct.BytesCopied += uint64(len(v.Bytes()))
		case marshal.KindRegRef:
			if s.breg == nil {
				fail(marshal.StatusDenied, "%s: registered-buffer reference without a registry", fd.Name)
				return
			}
			region, rerr := s.breg.Resolve(v.Ref().ID, v.Ref().Off, v.Uint())
			if rerr != nil {
				fail(marshal.StatusDenied, "%s: %v", fd.Name, rerr)
				return
			}
			acct.BytesBorrowed += v.Uint()
			if i < len(fd.Params) && fd.Params[i].IsPointer && fd.Params[i].Dir == spec.DirOut {
				for len(regions) <= i {
					regions = append(regions, nil)
				}
				regions[i] = region
				sl.regions = regions
				*v = marshal.Len(v.Uint())
			} else {
				*v = marshal.BytesVal(region)
			}
		}
	}

	inv := sl.inv
	if inv == nil {
		inv = &Invocation{}
		sl.inv = inv
	}
	inv.reset(fd, ctx)
	if err := inv.prepare(s.reg.Desc, call.Args, regions); err != nil {
		fail(marshal.StatusDenied, "%v", err)
		return
	}

	own := rc == nil || !async || call.Deadline != 0 // the call is timed on its own
	var start time.Time
	switch {
	case own:
		start = ctx.clk.Now()
		if rc != nil {
			if rc.open {
				acct.RunTime = start.Sub(rc.start)
			}
			*rc = runClock{}
		}
	case rc.start.IsZero():
		start = ctx.clk.Now()
		rc.start = start
	default:
		start = rc.start
	}
	// From here on every reply carries the call's completed timestamp
	// block, feeding the guest's per-stage latency breakdown; Done moves
	// to the handler's return once it has run.
	rep.Stamps = call.Stamps
	rep.Stamps.Dispatch = start.UnixNano()
	rep.Stamps.Done = rep.Stamps.Dispatch
	if own && call.Stamps.Admit != 0 {
		acct.AdmitToDispatch = time.Duration(rep.Stamps.Dispatch - call.Stamps.Admit)
	}

	// Deadline: re-anchor the remaining budget (wire deadline minus the
	// newest upstream stamp) into this server's clock domain, re-check at
	// dispatch, and arm the cancellation signal that handlers observe via
	// inv.Done() so a slow call aborts instead of holding the silo.
	var localDeadline time.Time
	var stop func() bool
	if call.Deadline != 0 {
		rel := time.Duration(call.Deadline - start.UnixNano())
		if anchor := call.Stamps.Admit; anchor != 0 {
			rel = time.Duration(call.Deadline - anchor)
		} else if call.Stamps.Encode != 0 {
			rel = time.Duration(call.Deadline - call.Stamps.Encode)
		}
		if rel <= 0 {
			acct.DeadlineAborts = 1
			fail(marshal.StatusDeadline, "%s: deadline expired before dispatch", fd.Name)
			return
		}
		localDeadline = start.Add(rel)
		inv.arm(localDeadline)
		stop = ctx.clk.AfterFunc(rel, func() { inv.cancelWith(ErrDeadlineExceeded) })
	}

	err := runHandler(h, inv)
	if errors.Is(err, ErrDeviceOOM) && s.reg.OnOOM != nil && s.reg.OnOOM(ctx, fd) {
		err = runHandler(h, inv) // one retry after the swap manager made room
	}
	var end time.Time
	if own {
		end = ctx.clk.Now()
		if stop != nil {
			stop()
		}
		acct.ExecTime = end.Sub(start)
		rep.Stamps.Done = end.UnixNano()
		if rc != nil {
			*rc = runClock{start: end}
		}
	} else {
		rc.open = true
	}

	if err != nil {
		status := marshal.StatusInternal
		switch {
		case errors.Is(err, ErrDeadlineExceeded):
			status = marshal.StatusDeadline
			acct.DeadlineAborts = 1
		case errors.Is(err, ErrCanceled):
			status = marshal.StatusCanceled
			acct.CanceledCalls = 1
		}
		fail(status, "%s: %v", fd.Name, err)
		return
	}
	// A handler that ignored the signal and finished after expiry is still
	// aborted: the caller's budget is spent and the reply is already late.
	if !localDeadline.IsZero() && !end.Before(localDeadline) {
		acct.DeadlineAborts = 1
		fail(marshal.StatusDeadline, "%s: deadline expired during execution", fd.Name)
		return
	}

	rep.Ret = inv.ret
	if fd.NumOuts > 0 {
		sl.outs = inv.finishOuts(sl.outs)
		rep.Outs = sl.outs
	}

	// Reply-side data-plane accounting: out/inout payloads returned inline
	// travel (and land in the caller's buffer) by copy; out-direction
	// regref writes already hit the registered region in place and were
	// counted as borrowed at resolution, and their reply carries only a
	// length, so nothing double-counts here.
	for i := range rep.Outs {
		if v := &rep.Outs[i]; v.Kind() == marshal.KindBytes {
			acct.BytesCopied += uint64(len(v.Bytes()))
		}
	}
}

// runHandler isolates a silo handler: a panic in one VM's call becomes an
// error reply for that call instead of taking down the API server process
// serving every VM — the fault-isolation property §2 faults vCUDA for
// lacking.
func runHandler(h Handler, inv *Invocation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(inv)
}

// ServeWorkers is the number of dispatch workers ServeVM runs per VM.
// Ordering domains are spread across the workers, so up to ServeWorkers
// independent domains execute concurrently.
const ServeWorkers = 16

// workerQueueDepth bounds each dispatch worker's inbox. A full queue
// back-pressures the receive loop, which in turn back-pressures the
// transport — the same flow control the serial loop had, just with a
// deeper pipe.
const workerQueueDepth = 64

// frameRef reference-counts a received batch frame across the calls decoded
// from it. The decoded calls alias the frame's bytes (args, inout outs), so
// the frame returns to the pool only after the last call's reply has been
// encoded. A nil frameRef (non-owning transport) is a no-op.
type frameRef struct {
	buf  []byte
	refs atomic.Int32
}

var frameRefPool = sync.Pool{New: func() any { return new(frameRef) }}

func newFrameRef(buf []byte, refs int) *frameRef {
	fr := frameRefPool.Get().(*frameRef)
	fr.buf = buf
	fr.refs.Store(int32(refs))
	return fr
}

func (fr *frameRef) release() {
	if fr != nil && fr.refs.Add(-1) == 0 {
		framebuf.Put(fr.buf)
		fr.buf = nil
		frameRefPool.Put(fr)
	}
}

// ticket names one call's place in the dispatch order: the n-th call handed
// to worker. Worker queues are FIFO, so "worker has completed n calls" means
// that call, and every call queued to the worker before it, has finished.
type ticket struct {
	worker int
	n      uint64
}

// ordering is the receive loop's bookkeeping for the dispatch order ServeVM
// guarantees: calls in one ordering domain execute in arrival order, as do
// calls that share any handle argument, and a synchronous call observes
// every asynchronous call issued before it (§4.2). It turns each call into
// a worker assignment plus, per other worker, the completion count the call
// must wait for (callSlot.need) — a dependency is always "worker w has
// finished at least n calls", never a per-call channel. Because every
// dependency points at a strictly earlier call and worker queues are FIFO,
// the earliest unfinished call never waits on anything behind it: the waits
// cannot deadlock. Only the receive loop touches an ordering.
type ordering struct {
	// domains is the sticky round-robin domain→worker assignment: a domain
	// keeps its worker while it is live (preserving FIFO within it) and new
	// domains spread evenly — the first ServeWorkers domains are guaranteed
	// distinct workers, which hashing would not give.
	domains map[uint64]int
	next    int
	// lastTouch is, per handle, the most recent call that referenced it
	// (not just as its primary domain): the next call naming the handle
	// waits for that one.
	lastTouch map[uint64]ticket
	enq       [ServeWorkers]uint64 // calls handed to each worker so far
	lastAsync [ServeWorkers]uint64 // ticket of each worker's latest async call
}

func newOrdering() *ordering {
	return &ordering{domains: make(map[uint64]int), lastTouch: make(map[uint64]ticket)}
}

// plan assigns sl its worker and ticket and computes what it must wait for.
func (o *ordering) plan(sl *callSlot, dom uint64, isSync bool) {
	w, ok := o.domains[dom]
	if !ok {
		w = o.next % ServeWorkers
		o.domains[dom] = w
		o.next++
	}
	o.enq[w]++
	t := ticket{worker: w, n: o.enq[w]}
	sl.worker, sl.ticket = w, t.n
	sl.need = [ServeWorkers]uint64{}
	for i := range sl.call.Args {
		a := &sl.call.Args[i]
		if a.Kind() != marshal.KindHandle {
			continue
		}
		// An earlier call on this call's own worker (including this very
		// call, when one handle appears twice in its arguments) needs no
		// wait: the worker's queue already runs them in order.
		if prev, ok := o.lastTouch[a.Uint()]; ok && prev.worker != w && prev.n > sl.need[prev.worker] {
			sl.need[prev.worker] = prev.n
		}
		o.lastTouch[a.Uint()] = t
	}
	// Handle-less calls all fall in domain 0, hence on one worker, and stay
	// ordered among themselves by its queue.
	if !isSync {
		o.lastAsync[w] = t.n
		return
	}
	// A synchronization point observes all asynchronous work issued before
	// it — the §4.2 error-deferral contract: an async failure surfaces at
	// the next sync call, whatever object it names.
	for v, n := range o.lastAsync {
		if v != w && n > sl.need[v] {
			sl.need[v] = n
		}
	}
}

// retire drops a destroyed handle's entries once the destroy call (ticket
// t) has completed, unless a later call has named the handle since — then
// that call's own chain still needs them. Every earlier call touching the
// handle finished before the destroy ran, so nothing queued depends on the
// entries, and a later call naming the (dead or recycled) handle simply
// starts a fresh domain.
func (o *ordering) retire(h uint64, t ticket) {
	if o.lastTouch[h] == t {
		o.forget(h)
	}
}

// forget drops a destroyed handle's entries unconditionally: retire's case
// once its ticket check passes, and a destroy run on the receiving goroutine,
// which no call of the VM can be in flight behind.
func (o *ordering) forget(h uint64) {
	delete(o.lastTouch, h)
	delete(o.domains, h)
}

// completions counts finished calls per worker and parks the few calls that
// must wait for another worker. The fast paths are one atomic add (finish)
// and one atomic load per dependency (await); the mutex and condition
// variable are touched only while somebody is actually blocked.
type completions struct {
	done    [ServeWorkers]atomic.Uint64
	waiting atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond
}

func (c *completions) finish(w int) {
	c.done[w].Add(1)
	if c.waiting.Load() > 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// ready reports whether every worker other than self has completed at
// least need[w] calls: whether await would return without blocking.
func (c *completions) ready(self int, need *[ServeWorkers]uint64) bool {
	for w, n := range need {
		if n != 0 && w != self && c.done[w].Load() < n {
			return false
		}
	}
	return true
}

// await blocks until every worker other than self has completed at least
// need[w] calls.
func (c *completions) await(self int, need *[ServeWorkers]uint64) {
	for w, n := range need {
		if n == 0 || w == self || c.done[w].Load() >= n {
			continue
		}
		c.mu.Lock()
		c.waiting.Add(1)
		for c.done[w].Load() < n {
			c.cond.Wait()
		}
		c.waiting.Add(-1)
		c.mu.Unlock()
	}
}

// retired collects, from the workers, the destroy calls that completed since
// the receive loop last looked; the loop applies them to its ordering.
type retired struct {
	mu    sync.Mutex
	items []retiredHandle
}

type retiredHandle struct {
	h uint64
	t ticket
}

func (r *retired) push(h uint64, t ticket) {
	r.mu.Lock()
	r.items = append(r.items, retiredHandle{h, t})
	r.mu.Unlock()
}

// drainInto runs once per received frame, so its uncontended lock is off
// the per-call path.
func (r *retired) drainInto(o *ordering) {
	r.mu.Lock()
	for _, it := range r.items {
		o.retire(it.h, it.t)
	}
	r.items = r.items[:0]
	r.mu.Unlock()
}

// replySender serializes reply frames from the dispatch workers onto the
// endpoint, so replies never interleave mid-frame. The first Send failure
// is sticky: later replies are dropped rather than blocking workers on a
// dead link.
type replySender struct {
	ep         transport.Endpoint
	sendCopies bool
	vec        transport.VectoredSender // ep's vectored send, if it has one
	mu         sync.Mutex
	err        error
	parts      [][]byte // sendSegments' iovec, under mu
}

func (rs *replySender) send(out []byte) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.err != nil {
		return
	}
	if err := rs.ep.Send(out); err != nil {
		rs.err = err
		return
	}
	if rs.sendCopies {
		framebuf.Put(out)
	}
}

// sendSegments sends a segmented reply with one vectored send. The send is
// synchronous, so out is recycled and the segments' borrow ends when it
// returns.
func (rs *replySender) sendSegments(out []byte, segs []marshal.Segment) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.err != nil {
		return
	}
	rs.parts = marshal.AppendParts(rs.parts[:0], out, segs)
	err := rs.vec.SendVec(rs.parts, len(out)+marshal.SegmentsLen(segs))
	clear(rs.parts)
	if err != nil {
		rs.err = err
		return
	}
	framebuf.Put(out)
}

// ServeVM runs the serve loop for one VM over ep: receive batch frames,
// dispatch each call to a worker keyed by its ordering domain (the first
// handle argument — an OpenCL command queue, a compression session), and
// reply to synchronous calls, one frame at a time. Calls in the same domain
// execute in arrival order, as do calls that share any handle argument (a
// kernel mutated by clSetKernelArg and then launched on a queue); calls
// with disjoint handles execute concurrently. While no call of the VM is on
// a worker, a frame's leading calls that declare no resource(...) — which
// therefore cannot wait on the device — run on the receiving goroutine
// itself, saving each one the hand-off to a worker. It returns when the
// transport closes, or DropContext closes it, after releasing every object
// the context's handle table still holds: the context is one incarnation,
// and a context already served or dropped is refused, its endpoint closed.
func (s *Server) ServeVM(ctx *Context, ep transport.Endpoint) error {
	served, ok := ctx.serve(ep)
	if !ok {
		ep.Close()
		return fmt.Errorf("server: vm %d: context already served or dropped (one incarnation per context)", ctx.VM)
	}
	defer close(served)
	defer ctx.releaseAll()
	return s.serveVM(ctx, ep, newOrdering())
}

func (s *Server) serveVM(ctx *Context, ep transport.Endpoint, ord *ordering) error {
	recvOwned := transport.RecvOwned(ep)
	replies := &replySender{ep: ep, sendCopies: transport.SendCopies(ep)}
	replies.vec, _ = ep.(transport.VectoredSender)
	var (
		comp completions
		gone retired
		wg   sync.WaitGroup
	)
	comp.cond.L = &comp.mu

	queues := make([]chan *callSlot, ServeWorkers)
	for i := range queues {
		q := make(chan *callSlot, workerQueueDepth)
		queues[i] = q
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rc runClock
			for {
				var sl *callSlot
				select {
				case sl = <-q:
				default:
					ctx.closeRun(&rc) // the queue is empty: the worker waits
					sl = <-q
				}
				if sl == nil { // closed, maybe while the worker was busy
					ctx.closeRun(&rc)
					return
				}
				if !comp.ready(w, &sl.need) {
					ctx.closeRun(&rc)
					comp.await(w, &sl.need)
				}
				size := s.run(ctx, sl, sl.wire, &rc)
				// The call has executed: a frame the guest sends on seeing
				// its reply finds the VM idle and may run inline.
				ctx.queued.Add(-1)
				if size != 0 {
					ctx.closeRun(&rc) // the reply's send may wait
				}
				replies.deliver(sl, size)
				if sl.retire != 0 {
					gone.push(sl.retire, ticket{worker: w, n: sl.ticket})
				}
				sl.release()
				comp.finish(w)
			}
		}(i)
	}

	var (
		loopErr error
		calls   [][]byte
		rc      runClock // the receiving goroutine's run of inline calls
	)
recv:
	for {
		ctx.closeRun(&rc)
		frame, err := ep.Recv()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				loopErr = err
			}
			break
		}
		calls, err = marshal.DecodeBatchInto(calls, frame)
		if err != nil {
			loopErr = fmt.Errorf("server: vm %d sent malformed batch: %w", ctx.VM, err)
			break
		}
		gone.drainInto(ord)
		var fr *frameRef
		if recvOwned && len(calls) > 0 {
			fr = newFrameRef(frame, len(calls))
		}
		// Run inline while nothing of this VM is queued or running on a
		// worker: a call that declares no resource runs to completion here,
		// before the next call is planned, so arrival order meets every
		// ordering rule. The first control, unknown or resourced call hands
		// it and the rest of the frame to the workers.
		inline := ctx.queued.Load() == 0
		for _, cf := range calls {
			sl := getSlot()
			if err := marshal.DecodeCallInto(&sl.call, cf); err != nil {
				// Abandon the rest of the frame: the undispatched refs
				// never drain, so the frame falls to the GC (never back
				// to the pool while calls alias it).
				loopErr = fmt.Errorf("server: vm %d sent malformed call: %w", ctx.VM, err)
				sl.release()
				break recv
			}
			sl.fr, sl.wire, sl.retire = fr, len(cf), 0
			fd, known := s.reg.Desc.ByID(sl.call.Func)
			if known && fd.Track.Kind == spec.TrackDestroy && fd.TrackIdx >= 0 && fd.TrackIdx < len(sl.call.Args) &&
				sl.call.Args[fd.TrackIdx].Kind() == marshal.KindHandle {
				sl.retire = sl.call.Args[fd.TrackIdx].Uint()
			}
			if inline = inline && known && len(fd.Resources) == 0; inline {
				size := s.run(ctx, sl, sl.wire, &rc)
				if size != 0 {
					ctx.closeRun(&rc)
				}
				replies.deliver(sl, size)
				if sl.retire != 0 {
					ord.forget(sl.retire)
				}
				sl.release()
				continue
			}
			ctx.closeRun(&rc) // a full worker queue waits
			dom := uint64(0)
			isSync := true // unknown functions get an error reply: sync
			if known {
				dom = fd.Domain(sl.call.Args)
				sync, err := fd.IsSync(s.reg.Desc.API, sl.call.Args)
				isSync = err != nil || sync
			}
			ord.plan(sl, dom, isSync)
			ctx.queued.Add(1)
			queues[sl.worker] <- sl
		}
	}
	ctx.closeRun(&rc) // a malformed call ended the loop mid-run

	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if loopErr != nil {
		return loopErr
	}
	if replies.err != nil && !errors.Is(replies.err, transport.ErrClosed) {
		return replies.err
	}
	return nil
}

// deliver sends the encoded reply of an executed call, if one is owed (size,
// from run, is 0 when none is), and releases the call's hold on its frame.
func (rs *replySender) deliver(sl *callSlot, size int) {
	if size == 0 {
		sl.fr.release()
		return
	}
	if rs.vec != nil {
		if phys := marshal.ReplySegmentsSize(&sl.reply, 0); phys < size {
			// Large outputs go from the handler's out buffer (or, inout, the
			// batch frame) straight into the socket: no reply frame the size
			// of the data is drawn, filled and recycled behind the send, so a
			// guest whose next call overtakes that recycling never finds the
			// payload pool short. The batch frame is released after the send,
			// when no segment borrows from it any more.
			out, segs := marshal.AppendReplySegments(framebuf.Get(phys), sl.segs[:0], &sl.reply, 0)
			rs.sendSegments(out, segs)
			clear(segs)
			sl.segs = segs
			sl.fr.release()
			return
		}
	}
	out := marshal.AppendReply(framebuf.Get(size), &sl.reply)
	// Inout outs alias the batch frame, so the frame is released only now
	// that the reply bytes have been copied out by the encoder.
	sl.fr.release()
	rs.send(out)
}

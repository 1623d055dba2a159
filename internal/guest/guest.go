// Package guest implements the guest-side AvA library runtime.
//
// The generated guest library for an API is a set of thin typed stubs over
// Lib, the descriptor-driven stub engine in this package. Lib intercepts a
// call, marshals arguments per the API specification, decides the
// forwarding mode (sync, async, or conditional on an argument, §4.2),
// batches asynchronously forwarded calls (the rCUDA-style optimization),
// transmits over the hypervisor-managed transport, and scatters outputs
// back into caller memory when the reply arrives.
//
// Asynchronously forwarded calls return their declared success value
// immediately; a failure is delivered through a later synchronous call and
// surfaced via DeferredError — exactly the fidelity loss the paper
// describes for transparently asynchronous forwarding.
package guest

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ava/internal/averr"
	"ava/internal/backoff"
	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/spec"
	"ava/internal/transport"
)

// Errors returned by the stub engine — aliases of the stack-wide sentinels
// in internal/averr, so errors.Is works across layer boundaries.
var (
	ErrBadArg           = averr.ErrBadArg
	ErrProtocol         = averr.ErrProtocol
	ErrDeadlineExceeded = averr.ErrDeadlineExceeded
	ErrCanceled         = averr.ErrCanceled
	ErrOverloaded       = averr.ErrOverloaded
	ErrRetryable        = averr.ErrRetryable
)

// APIError is a remote API failure surfaced by the stack itself
// (router denial, server-internal fault, or a deadline/cancellation
// abort), as opposed to an API status code, which flows through the
// return value.
type APIError struct {
	Func   string
	Status marshal.Status
	Detail string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("guest: %s: %s: %s", e.Func, e.Status, e.Detail)
}

// Unwrap maps the reply status onto the stack-wide sentinel it represents
// (ErrDeadlineExceeded for StatusDeadline, ErrCanceled for StatusCanceled),
// making errors.Is hold end to end regardless of which layer aborted the
// call. Statuses without a sentinel — including unknown future ones —
// unwrap to nil and keep their numeric identity in Error().
func (e *APIError) Unwrap() error { return e.Status.Sentinel() }

// Stats counts guest-side activity.
type Stats struct {
	Calls      uint64
	SyncCalls  uint64
	AsyncCalls uint64
	Batches    uint64 // transport frames sent
	BytesSent  uint64
	BytesRecv  uint64
	// BytesCopied counts buffer payload bytes moved by copy in either
	// direction: in/inout payloads marshalled into call frames, plus
	// out/inout payloads scattered from reply frames back into caller
	// buffers (each direction of an inout buffer is a separate copy and
	// counts once). BytesBorrowed counts payload bytes that skipped the
	// copy, lent to a vectored (scatter-gather) transport send.
	// Together they decompose the data-plane volume the copycost
	// experiment (E14) reports, D2H as well as H2D.
	BytesCopied   uint64
	BytesBorrowed uint64
	// DeadlineFailFast counts calls failed locally because their deadline
	// had already passed at encode time; they never touch the transport.
	DeadlineFailFast uint64
	// BatchExpiredDrops counts batched asynchronous calls excised at flush
	// because their deadline passed while they sat in the batch; like the
	// router's async deadline denial, the drop is local and surfaces only
	// through stats.
	BatchExpiredDrops uint64
	// BatchDeadlineFlushes counts early batch flushes forced because the
	// oldest batched call's deadline budget fell within the flush slack.
	BatchDeadlineFlushes uint64
	// OverloadDenied counts replies carrying StatusOverload: calls (or, via
	// the router's deferred-denial contract, earlier async calls) shed by
	// the hypervisor's load shedder.
	OverloadDenied uint64
	// OverloadRetries counts transparent re-sends of synchronous calls that
	// were denied with StatusOverload (WithOverloadRetry); each retried
	// denial also counts in OverloadDenied.
	OverloadRetries uint64
	// Reconnects counts endpoint-epoch changes absorbed transparently: one
	// per server recovery the library resubmitted its unacked window for.
	Reconnects uint64
	// ResubmittedCalls counts retained calls re-sent after recoveries.
	ResubmittedCalls uint64
	// RetryableFailed counts calls failed with averr.ErrRetryable because
	// their frame could not be replayed (retention window overflowed, or
	// recovery was abandoned). Zero in a healthy deployment.
	RetryableFailed uint64
	// RetainDropped counts retained frames evicted undone because the
	// retention window overflowed; such calls cannot be resubmitted after
	// a crash. Size FailoverPolicy.Retain above the guardian's checkpoint
	// interval to keep this at zero.
	RetainDropped uint64
	// StaleRepliesDropped counts replies discarded because their call had
	// already retired — a reply the dead server incarnation got onto the
	// wire before the crash, arriving after recovery short-circuited the
	// resubmitted copy from the record log (or the reverse order). Under
	// the at-least-once recovery protocol duplicates are expected noise;
	// without failover the same reply is a protocol violation.
	StaleRepliesDropped uint64

	// Per-stage latency accumulators, summed over the StagedCalls
	// synchronous calls whose replies carried a full stamp block; divide
	// by StagedCalls for per-call means. Stages follow the call path:
	// guest encode → router admit → server dispatch → handler done →
	// reply decoded back at the guest. Stamps come from each layer's own
	// clock, so cross-machine (TCP) deployments fold clock skew into
	// EncodeToAdmit.
	StagedCalls          uint64
	StageEncodeToAdmit   time.Duration
	StageAdmitToDispatch time.Duration
	StageExec            time.Duration
	StageReply           time.Duration
}

// Option configures a Lib at construction time. Options that express a
// per-call knob (WithTimeout, WithPriority, WithDeadlineSlack,
// WithOverloadRetry) are DualOptions: handed to New they set the
// library-wide default, handed to a call site (or a generated binding's
// With) they adjust that one call. The two surfaces share one vocabulary
// on purpose — a knob is spelled the same wherever it is turned.
type Option interface {
	applyLib(*Lib)
}

// CallOption adjusts one call's forwarding metadata. Collect options into
// an effective CallOptions with ApplyCallOptions, or pass them straight to
// a generated binding's With.
type CallOption interface {
	applyCall(*CallOptions)
}

// DualOption is an option meaningful at both scopes: library-wide default
// (as an Option to New) and per-call override (as a CallOption).
type DualOption interface {
	Option
	CallOption
}

// libOption is a construction-only option.
type libOption func(*Lib)

func (f libOption) applyLib(l *Lib) { f(l) }

// callOption is a per-call-only option.
type callOption func(*CallOptions)

func (f callOption) applyCall(o *CallOptions) { f(o) }

// dualOption applies at either scope.
type dualOption struct {
	lib  func(*Lib)
	call func(*CallOptions)
}

func (d dualOption) applyLib(l *Lib)          { d.lib(l) }
func (d dualOption) applyCall(o *CallOptions) { d.call(o) }

// WithBatchLimit caps the async queue length before a forced flush.
func WithBatchLimit(n int) Option {
	return libOption(func(l *Lib) {
		if n > 0 {
			l.batchLimit = n
		}
	})
}

// WithForceSync disables asynchronous forwarding and batching; every call
// is forwarded synchronously. This is the "unoptimized specification"
// configuration from the paper's §5 ablation.
func WithForceSync() Option {
	return libOption(func(l *Lib) { l.forceSync = true })
}

// WithZeroCopy toggles the zero-copy data plane (on by default): borrowed
// scatter-gather sends over transports with a vectored write path. Turning
// it off forces every buffer argument through the copying marshal path —
// the baseline configuration the copycost experiment (E14) compares against.
func WithZeroCopy(on bool) Option {
	return libOption(func(l *Lib) { l.zeroCopy = on })
}

// WithSequenceBase starts the library's call numbering after base instead
// of at 1. A fresh library attaching to a guardian rehydrated from a
// mirrored shadow log (Config.Restore) must start past the mirror's
// watermark: sequence numbers at or below it belong to the first life's
// calls — the guardian fences them and the resubmission protocol trims
// them from the retained window, so a call issued under one would hang its
// caller forever.
func WithSequenceBase(base uint64) Option {
	return libOption(func(l *Lib) {
		if base > l.seq {
			l.seq = base
		}
	})
}

// WithClock overrides the library's time source, used for deadline
// stamping and fail-fast checks (virtual clocks in tests).
func WithClock(clk clock.Clock) Option {
	return libOption(func(l *Lib) {
		if clk != nil {
			l.clk = clk
		}
	})
}

// WithPriority sets the priority stamped on calls (higher is more urgent;
// 0 is the default class): the library-wide default when given to New, one
// call's priority when given to a call site.
func WithPriority(p uint8) DualOption {
	return dualOption{
		lib:  func(l *Lib) { l.defPriority = p },
		call: func(o *CallOptions) { o.Priority = p },
	}
}

// WithTimeout bounds calls with a deadline of now+d at encode time: the
// default for every call without an explicit deadline when given to New,
// one call's budget when given to a call site. Zero disables the default.
func WithTimeout(d time.Duration) DualOption {
	return dualOption{
		lib:  func(l *Lib) { l.defTimeout = d },
		call: func(o *CallOptions) { o.Timeout = d },
	}
}

// WithDeadline sets one call's absolute deadline on the library's clock —
// the per-call-only sibling of WithTimeout.
func WithDeadline(t time.Time) CallOption {
	return callOption(func(o *CallOptions) { o.Deadline = t })
}

// WithDeadlineSlack tunes deadline-aware batching: an asynchronous append
// forces a flush when a batched call's remaining deadline budget falls to
// d or below, so the batch reaches the server while its calls can still
// run. Negative disables the early flush (expired batched calls are still
// dropped locally at flush time). The library default is 200µs; given to a
// call site, d governs just that call's pressure on the batch.
func WithDeadlineSlack(d time.Duration) DualOption {
	return dualOption{
		lib:  func(l *Lib) { l.deadlineSlack = d },
		call: func(o *CallOptions) { o.DeadlineSlack = d },
	}
}

// FailoverPolicy configures guest-side participation in API-server
// failover. Every transmitted call is retained (an owned copy of its
// encoded frame) until a guardian checkpoint notice covers it; when the
// guardian announces a recovery onto a new endpoint epoch, the library
// transparently resubmits its unacked window in sequence order, stamped
// with the new epoch.
type FailoverPolicy struct {
	// Retain caps the retained-call window; 0 means 4096. It must
	// comfortably exceed the guardian's CheckpointEvery, or calls can be
	// evicted before a checkpoint covers them (Stats.RetainDropped) and
	// surface averr.ErrRetryable after a crash instead of replaying.
	Retain int
}

// WithFailover enables transparent resubmission after server recovery.
func WithFailover(p FailoverPolicy) Option {
	return libOption(func(l *Lib) {
		if p.Retain <= 0 {
			p.Retain = 4096
		}
		l.fo = &foState{
			policy: p,
			ctrl:   make(chan ctrlMsg, 16),
			done:   make(chan struct{}),
		}
	})
}

// WithOverloadRetry enables transparent retry of synchronous calls denied
// with StatusOverload: each denied call draws jittered delays from its own
// backoff series until the call succeeds, its deadline would pass mid-sleep,
// or the series' budget is spent (the denial then surfaces as usual). Given
// to New it covers every call; given to a call site it enables (or retunes)
// retry for that call alone.
func WithOverloadRetry(cfg backoff.Config) DualOption {
	return dualOption{
		lib:  func(l *Lib) { l.retryB = backoff.New(cfg) },
		call: func(o *CallOptions) { c := cfg; o.Retry = &c },
	}
}

// retained is one call's resubmission record: an owned copy of its encoded
// frame plus the bookkeeping that decides whether a recovery replays it.
type retained struct {
	seq   uint64
	body  []byte // encoded call, no length prefix; cut from a window chunk
	track spec.TrackKind
	sync  bool
	sent  bool // false while the call still sits in the un-flushed batch
	done  bool // result delivered (or locally dropped): never resubmit as-is
}

// ctrlMsg is one decoded guardian control notice.
type ctrlMsg struct {
	kind  byte
	epoch uint32
	w     uint64
}

// foState is the retention window plus the control-notice queue. The
// window is guarded by l.mu; ctrl is fed by the demux and drained by
// foLoop so control handling never blocks reply delivery.
type foState struct {
	policy FailoverPolicy
	window
	ctrl chan ctrlMsg
	done chan struct{}
}

// retainChunk is the size of the frame-pool buffers the window packs
// retained bodies into: a few hundred calls of a serving loop, or a dozen
// 4 KiB writes, per chunk.
const retainChunk = 64 << 10

// window holds the retained calls: records by value in ascending seq order
// (entries[head:] is the window), each body copied once into the newest of
// a FIFO of framebuf chunks. The window only ever loses a prefix — a
// checkpoint covers it, or it overflows Retain — so the chunks leave in the
// order they were filled: a chunk goes back to framebuf with the last
// record whose body it holds, never earlier. A body larger than a chunk
// gets a buffer of its own size, which joins the FIFO like any chunk.
type window struct {
	entries []retained
	head    int
	chunks  []chunk // oldest first; bodies are appended to the last
}

// chunk is one frame-pool buffer of retained bodies.
type chunk struct {
	buf  []byte
	last uint64 // seq of the newest body in buf
}

// live returns the retained records, oldest first.
func (w *window) live() []retained { return w.entries[w.head:] }

// add retains r with a copy of body, appended to the newest chunk when it
// fits and to a fresh one when it does not. The copy's capacity ends with
// it, so patching one body can never reach its neighbour.
func (w *window) add(r retained, body []byte) {
	if n := len(w.chunks); n == 0 || cap(w.chunks[n-1].buf)-len(w.chunks[n-1].buf) < len(body) {
		w.chunks = append(w.chunks, chunk{buf: framebuf.Get(max(len(body), retainChunk))})
	}
	c := &w.chunks[len(w.chunks)-1]
	off := len(c.buf)
	c.buf = append(c.buf, body...)
	c.last = r.seq
	r.body = c.buf[off:len(c.buf):len(c.buf)]
	w.entries = append(w.entries, r)
}

// find returns the retained record of seq, or nil.
func (w *window) find(seq uint64) *retained {
	live := w.live()
	if i, ok := slices.BinarySearchFunc(live, seq, func(r retained, seq uint64) int { return cmp.Compare(r.seq, seq) }); ok {
		return &live[i]
	}
	return nil
}

// drop removes the n oldest records and returns every chunk that held
// only their bodies to framebuf. The record array is compacted in place
// once the dropped prefix passes half of it, so trimming never allocates.
func (w *window) drop(n int) {
	if n == 0 {
		return
	}
	last := w.entries[w.head+n-1].seq
	clear(w.entries[w.head : w.head+n])
	w.head += n
	if w.head > len(w.entries)/2 {
		k := copy(w.entries, w.entries[w.head:])
		clear(w.entries[k:])
		w.entries, w.head = w.entries[:k], 0
	}
	k := 0
	for k < len(w.chunks) && w.chunks[k].last <= last {
		framebuf.Put(w.chunks[k].buf)
		k++
	}
	if k > 0 {
		m := copy(w.chunks, w.chunks[k:])
		clear(w.chunks[m:])
		w.chunks = w.chunks[:m]
	}
}

// CallOptions carries per-call forwarding metadata. The zero value means
// "use the library defaults". A CallOptions value is itself a CallOption
// that replaces the accumulated set wholesale, so pre-built literals and
// the With* combinators compose through the same variadic surface.
type CallOptions struct {
	// Deadline is an absolute deadline on the library's clock; the zero
	// time means none (Timeout, then the library default, applies).
	Deadline time.Time
	// Timeout, when positive and Deadline is zero, sets the deadline to
	// now+Timeout at encode time.
	Timeout time.Duration
	// Priority overrides the library default when non-zero (priority 0 is
	// the shared default class, so per-call demotion to 0 is expressed by
	// not raising the library default instead).
	Priority uint8
	// DeadlineSlack overrides the library's deadline-aware flush slack for
	// this call when non-zero; negative disables the early flush for it.
	DeadlineSlack time.Duration
	// Retry, when non-nil, gives this call its own overload-retry backoff
	// (replacing or enabling the library-wide WithOverloadRetry setting).
	Retry *backoff.Config
}

func (o CallOptions) applyCall(dst *CallOptions) { *dst = o }

// ApplyCallOptions folds opts over base and returns the effective set.
// Generated bindings use it to resolve their variadic With arguments.
func ApplyCallOptions(base CallOptions, opts ...CallOption) CallOptions {
	for _, o := range opts {
		if o != nil {
			o.applyCall(&base)
		}
	}
	return base
}

// pendingCall is the batcher's per-call metadata: where the call's
// length-prefixed frame sits in pendingBuf, and the deadline bookkeeping
// that lets takePending excise calls that expired while batched.
type pendingCall struct {
	off, end int           // [off, end) segment of pendingBuf (incl. length prefix)
	deadline int64         // absolute UnixNano on the library clock; 0 = none
	slack    time.Duration // this call's deadline-flush slack; <=0 = no early flush
	async    bool          // only async calls may be dropped locally
	seq      uint64        // ties the segment to its retained entry
}

func (pc *pendingCall) expired(now int64) bool {
	return pc.async && pc.deadline != 0 && pc.deadline <= now
}

// demuxResult carries one call's outcome from the reply demultiplexer to
// the goroutine waiting on it. A nil err means the reply was decoded into
// the waiter's own record.
type demuxResult struct {
	frame []byte // backing frame, recycled by the caller after scatter
	err   error
}

// waiter is one synchronous call's rendezvous with the demultiplexer: the
// channel its outcome arrives on and the record its reply is decoded into.
// Waiters are pooled. The channel is buffered and receives exactly one
// result per registration — whoever removes the waiter from Lib.waiters
// (under waitMu) is the only sender — so once the caller has received it the
// channel is empty, nobody else holds the waiter, and it can be reused. A
// waiter whose call gave up without receiving (the send failed) is not
// reused: a demux that already claimed it may still deliver.
type waiter struct {
	ch    chan demuxResult
	reply marshal.Reply // valid from the receive until the waiter is released
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan demuxResult, 1)} }}

// Lib is the descriptor-driven guest stub engine for one API on one VM.
//
// Lib is fully pipelined: N goroutines can each have a synchronous call in
// flight over the one endpoint. A call holds the library mutex only for
// the short critical section — sequence allocation, encode, send — and
// then waits for its reply on a private channel fed by a demultiplexer
// goroutine that routes replies by sequence number. Asynchronous batching
// keeps its ordering guarantee because a synchronous call rides the same
// batch frame as (and therefore behind) every call batched before it.
type Lib struct {
	desc *cava.Descriptor
	ep   transport.Endpoint
	clk  clock.Clock

	batchLimit    int
	forceSync     bool
	defPriority   uint8
	defTimeout    time.Duration
	deadlineSlack time.Duration
	zeroCopy      bool

	// Resolved once in New: what the endpoint does with frame buffers, and
	// its vectored send path if it has one.
	sendCopies bool
	recvOwned  bool
	vec        transport.VectoredSender

	mu          sync.Mutex
	seq         uint64
	epoch       uint32            // current endpoint epoch, stamped on every call
	pendingBuf  []byte            // batch frame under construction (async calls)
	pendingN    int               // calls in pendingBuf
	pendingMeta []pendingCall     // one entry per call in pendingBuf
	pendingSegs []marshal.Segment // borrowed segments of pendingBuf's final (sync) call
	pendingDL   int               // calls in pendingBuf that carry a deadline
	frameHint   int               // size the previous batch frame needed (capped)
	deferred    error
	stats       Stats
	fo          *foState         // nil unless WithFailover
	retryB      *backoff.Backoff // nil unless WithOverloadRetry

	// Reply demultiplexer state. waitMu is ordered strictly inside mu and
	// the demux goroutine takes only waitMu, never mu: the demux must
	// never block behind a sender stalled on transport backpressure, or
	// the pipeline's drain would be part of its own congestion cycle.
	demuxOnce sync.Once
	waitMu    sync.Mutex
	waiters   map[uint64]*waiter
	discard   map[uint64]struct{} // resubmitted completed calls: eat the reply
	retiredHi uint64              // highest seq whose reply was ever delivered or discarded
	staleDup  uint64              // duplicate replies for retired seqs, dropped (failover only)
	recvErr   error               // sticky demux failure; set once, fails all later calls

	closeOnce sync.Once
}

// New creates a guest library over an established transport endpoint.
func New(desc *cava.Descriptor, ep transport.Endpoint, opts ...Option) *Lib {
	l := &Lib{desc: desc, ep: ep, batchLimit: 128, clk: clock.NewReal(), deadlineSlack: 200 * time.Microsecond, zeroCopy: true}
	l.sendCopies, l.recvOwned = transport.SendCopies(ep), transport.RecvOwned(ep)
	l.vec, _ = ep.(transport.VectoredSender)
	for _, o := range opts {
		if o != nil {
			o.applyLib(l)
		}
	}
	if l.fo != nil {
		// Control notices can arrive before the first synchronous call
		// registers a waiter; the demux must be listening from the start.
		l.demuxOnce.Do(func() { go l.demux() })
		go l.foLoop()
	}
	return l
}

// Descriptor returns the API descriptor this library speaks.
func (l *Lib) Descriptor() *cava.Descriptor { return l.desc }

// Stats returns a copy of the library's counters.
func (l *Lib) Stats() Stats {
	l.mu.Lock()
	s := l.stats
	l.mu.Unlock()
	l.waitMu.Lock()
	s.StaleRepliesDropped = l.staleDup
	l.waitMu.Unlock()
	return s
}

// DeferredError returns and clears the stored failure of an earlier
// asynchronously forwarded call.
func (l *Lib) DeferredError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.deferred
	l.deferred = nil
	return err
}

// outBinding is where one out / inout buffer's reply contents go.
type outBinding struct {
	param int
	buf   []byte // the caller's destination, cut to the declared size
}

// Call invokes the named API function: the by-name, untyped front of Invoke,
// kept for tests, examples and one-off calls. It looks the function up,
// converts each argument to its wire value on its own stack, calls Invoke,
// and stores out elements through the pointers it was given. Arguments must
// match the specification positionally:
//
//   - integer scalars: int, int32, int64, uint, uint32, uint64
//   - bool, float32/float64, string scalars as themselves
//   - handles: marshal.Handle (nil pointer = 0 is not allowed; pass 0)
//   - in buffers: []byte (nil for an absent optional buffer)
//   - out / inout buffers: []byte of at least the declared size (nil to omit)
//   - out elements: *int32, *int64, *uint32, *uint64, *float32, *float64,
//     *marshal.Handle (nil to omit)
//
// The returned Value is the API return value; for asynchronously forwarded
// calls it is the declared success value.
func (l *Lib) Call(name string, args ...any) (marshal.Value, error) {
	return l.CallWith(CallOptions{}, name, args...)
}

// CallWith is Call with explicit per-call forwarding metadata: a deadline
// (absolute or as a timeout) and a priority, stamped into the call header
// at encode time. A call whose deadline has already passed fails fast
// locally with ErrDeadlineExceeded and never touches the transport.
func (l *Lib) CallWith(opts CallOptions, name string, args ...any) (marshal.Value, error) {
	fd, ok := l.desc.Lookup(name)
	if !ok {
		return marshal.Null(), fmt.Errorf("%w: no function %q", ErrBadArg, name)
	}
	if len(args) != len(fd.Params) {
		return marshal.Null(), fmt.Errorf("%w: %s: %d args, want %d", ErrBadArg, fd.Name, len(args), len(fd.Params))
	}
	var (
		valueBuf [8]marshal.Value
		elemBuf  [4]elemDst
	)
	values := valueBuf[:0]
	if len(args) > len(valueBuf) {
		values = make([]marshal.Value, 0, len(args))
	}
	elems := elemBuf[:0]
	for i, arg := range args {
		pd := &fd.Params[i]
		v, err := convertArg(pd, arg)
		if err != nil {
			return marshal.Null(), fmt.Errorf("%w: %s(%s): %v", ErrBadArg, fd.Name, pd.Name, err)
		}
		values = append(values, v)
		if pd.IsElement && arg != nil {
			elems = append(elems, elemDst{param: i, dst: arg})
		}
	}
	ret, err := l.Invoke(fd, &opts, values)
	if err != nil {
		return marshal.Null(), err
	}
	for _, e := range elems {
		if err := storeElement(e.dst, values[e.param]); err != nil {
			return marshal.Null(), fmt.Errorf("%w: %s: %v", ErrProtocol, fd.Name, err)
		}
	}
	return ret, nil
}

// deadlineNano resolves the effective absolute deadline (UnixNano on the
// library's clock) for one call; 0 means none.
func (l *Lib) deadlineNano(opts *CallOptions, now time.Time) int64 {
	switch {
	case !opts.Deadline.IsZero():
		return opts.Deadline.UnixNano()
	case opts.Timeout > 0:
		return now.Add(opts.Timeout).UnixNano()
	case l.defTimeout > 0:
		return now.Add(l.defTimeout).UnixNano()
	}
	return 0
}

// Invoke is the stub engine: the one path every forwarded call takes. The
// generated stubs call it directly with a function descriptor they resolved
// once (cava.Descriptor.Resolve) and an argument vector built on their own
// stack; Call and CallWith convert and then call it.
//
// args holds one wire value per parameter, in declaration order:
//
//   - a scalar as the value of its kind (marshal.Uint, Int, Float, Bool, Str,
//     HandleVal; marshal.Null for an absent handle or string);
//   - a buffer, whatever its direction, as marshal.BytesVal of the caller's
//     memory — nil for an absent one. It must hold at least the bytes the
//     specification's size expression asks for. An in or inout buffer's
//     contents are sent; an out or inout buffer is where the reply's contents
//     are copied before Invoke returns;
//   - an out element the caller wants as marshal.Len (any length), and
//     marshal.Null for one it does not. On success Invoke leaves the element
//     the server returned in that slot of args — a scalar or handle value, or
//     Null if the server set none — and the stub stores it through the
//     caller's pointer itself. The pointer never enters the engine, so it is
//     never boxed and its target need not escape.
//
// args belongs to the caller. Invoke reads and rewrites it (buffers are cut
// to their declared size, out buffers become length placeholders) until it
// returns and keeps no reference to it afterwards: the encoder copies
// argument contents into the frame, or lends them to a vectored send that
// completes inside the call, and a frame retained for failover resubmission
// is an owned copy. opts is only read.
//
// The returned Value is the API return value; for an asynchronously forwarded
// call it is the declared success value.
func (l *Lib) Invoke(fd *cava.FuncDesc, opts *CallOptions, args []marshal.Value) (marshal.Value, error) {
	if len(args) != len(fd.Params) {
		return marshal.Null(), fmt.Errorf("%w: %s: %d args, want %d", ErrBadArg, fd.Name, len(args), len(fd.Params))
	}

	// The clock is read only for a consumer of the reading. A call with a
	// deadline reads it here, before argument checking and marshalling: it
	// anchors the deadline, and fail-fast spends no marshal effort on a dead
	// call. A deadline-free call reads it once it is known to be synchronous
	// (below), since only a sync call's encode stamp comes back in a reply
	// to feed the stage breakdown; a deadline-free async call goes out with
	// Stamps.Encode = 0, which the router and server read only beside a
	// deadline.
	var now time.Time
	var deadline int64
	if !opts.Deadline.IsZero() || opts.Timeout > 0 || l.defTimeout > 0 {
		now = l.clk.Now()
		deadline = l.deadlineNano(opts, now)
		if deadline <= now.UnixNano() {
			l.mu.Lock()
			l.stats.DeadlineFailFast++
			l.mu.Unlock()
			return marshal.Null(), fmt.Errorf("%w: %s: expired before encode", ErrDeadlineExceeded, fd.Name)
		}
	}

	// The out-buffer bindings live on this goroutine's stack for calls of
	// ordinary shape; scatter runs before return, so nothing retains them.
	var outBuf [4]outBinding
	outs := outBuf[:0]
	wantsOut := false // some out / inout parameter is present, element or buffer
	for i := range fd.Params {
		pd := &fd.Params[i]
		v := &args[i]
		if !pd.IsPointer {
			if err := pd.CheckScalar(v); err != nil {
				return marshal.Null(), fmt.Errorf("%w: %s(%s): %v", ErrBadArg, fd.Name, pd.Name, err)
			}
			continue
		}
		if v.IsNull() {
			continue
		}
		if pd.IsElement {
			if v.Kind() != marshal.KindLen {
				return marshal.Null(), fmt.Errorf("%w: %s(%s): out element passed as %v", ErrBadArg, fd.Name, pd.Name, v.Kind())
			}
			*v = marshal.Len(uint64(pd.ElemSize))
			wantsOut = true
			continue
		}
		if v.Kind() != marshal.KindBytes {
			return marshal.Null(), fmt.Errorf("%w: %s(%s): buffer passed as %v", ErrBadArg, fd.Name, pd.Name, v.Kind())
		}
		buf := v.Bytes()
		if buf == nil {
			*v = marshal.Null()
			continue
		}
		// Buffers travel as bytes; the declared size expression is
		// authoritative on both sides.
		want, err := fd.BufferBytesArgs(i, l.desc.API, args)
		if err != nil {
			return marshal.Null(), fmt.Errorf("%w: %s(%s): %v", ErrBadArg, fd.Name, pd.Name, err)
		}
		if len(buf) < want {
			return marshal.Null(), fmt.Errorf("%w: %s(%s): buffer is %d bytes, specification requires %d", ErrBadArg, fd.Name, pd.Name, len(buf), want)
		}
		if pd.Out() {
			outs = append(outs, outBinding{param: i, buf: buf[:want]})
			wantsOut = true
		}
		if pd.In() {
			*v = marshal.BytesVal(buf[:want])
		} else {
			*v = marshal.Len(uint64(want))
		}
	}

	sync, err := fd.IsSync(l.desc.API, args)
	if err != nil {
		return marshal.Null(), err
	}
	if l.forceSync {
		sync = true
	}
	if !sync && wantsOut {
		// Asynchrony is only transparent for calls with no outputs; the
		// spec validator enforces this for `async;`, and conditional
		// synchrony ties outputs to the blocking case (e.g.
		// clEnqueueReadBuffer). If a caller passes output destinations on
		// a non-blocking path, forward synchronously to stay faithful.
		sync = true
	}
	if sync && now.IsZero() {
		// Stamp before marshalling: the encode→admit stage owns the buffer
		// copies of the encode.
		now = l.clk.Now()
	}

	// Short critical section: sequence allocation, encode into the batch
	// frame, and (for sync calls) waiter registration plus send. The reply
	// round trip happens outside the lock, so other goroutines pipeline
	// their own calls over the same endpoint meanwhile. Synchronous calls
	// loop: an overload denial re-sends the call (fresh sequence number and
	// encode stamp) after a jittered backoff when WithOverloadRetry is on.
	retryB := l.retryB
	if opts.Retry != nil {
		retryB = backoff.New(*opts.Retry)
	}
	slack := l.deadlineSlack
	if opts.DeadlineSlack != 0 {
		slack = opts.DeadlineSlack
	}
	// Borrowed scatter-gather sends: over a transport with a vectored
	// write path (TCP writev), a synchronous call's large in-buffer
	// payloads stay in the caller's memory and are interleaved with the
	// frame pieces at send time. The borrow is sound because the vectored
	// send is synchronous and completes inside this call; guest-side
	// retention disables it, because a retained frame must hold the
	// original bytes for exactly-once resubmission after a crash.
	var series *backoff.Series
	for {
		l.mu.Lock()

		pri := opts.Priority
		if pri == 0 {
			pri = l.defPriority
		}

		l.seq++
		call := marshal.Call{Seq: l.seq, Func: fd.ID, Priority: pri, Epoch: l.epoch, Deadline: deadline, Args: args}
		if !now.IsZero() {
			call.Stamps.Encode = now.UnixNano()
		}
		l.stats.Calls++

		if !sync {
			call.Flags |= marshal.FlagAsync
			if l.pendingN > 0 {
				call.Flags |= marshal.FlagBatched
			}
			l.appendPending(fd, &call, deadline, slack, true)
			l.stats.AsyncCalls++
			l.stats.BytesCopied += bytesPayload(args)
			var err error
			if l.pendingN >= l.batchLimit {
				err = l.flushLocked()
			} else if l.pendingDL > 0 {
				if now.IsZero() {
					// A call batched earlier carries a deadline; this one
					// took no reading of its own.
					now = l.clk.Now()
				}
				if l.deadlinePressure(now) {
					// Deadline-aware batching: the oldest batched call's
					// budget is nearly spent, so flush now rather than let
					// it expire queued.
					l.stats.BatchDeadlineFlushes++
					err = l.flushLocked()
				}
			}
			l.mu.Unlock()
			if err != nil {
				return marshal.Null(), err
			}
			if fd.HasSuccess {
				return marshal.Int(fd.SuccessVal), nil
			}
			return marshal.Null(), nil
		}

		l.stats.SyncCalls++
		if l.zeroCopy && l.fo == nil && l.vec != nil && hasLargeBytes(args) {
			l.appendPendingSegs(&call, deadline, slack)
		} else {
			l.appendPending(fd, &call, deadline, slack, false)
		}
		batch, _, segs := l.takePending()

		segBytes := uint64(marshal.SegmentsLen(segs))
		l.stats.Batches++
		l.stats.BytesSent += uint64(len(batch)) + segBytes
		l.stats.BytesBorrowed += segBytes
		l.stats.BytesCopied += bytesPayload(args) - segBytes
		// Register before Send: the reply may race back before this goroutine
		// would otherwise get around to waiting for it.
		w, err := l.register(call.Seq)
		if err == nil {
			var serr error
			if len(segs) > 0 {
				serr = sendVecSegs(l.vec, batch, segs)
			} else {
				serr = l.ep.Send(batch)
			}
			if serr != nil {
				// The waiter is abandoned, not pooled: a demux that already
				// claimed it could still deliver into its channel.
				l.unregister(call.Seq)
				err = serr
			} else if l.sendCopies {
				framebuf.Put(batch)
			}
		}
		if err != nil {
			l.markDoneLocked(call.Seq)
			l.mu.Unlock()
			return marshal.Null(), err
		}
		l.mu.Unlock()

		res := <-w.ch
		if res.err != nil {
			waiterPool.Put(w)
			l.mu.Lock()
			l.markDoneLocked(call.Seq)
			l.mu.Unlock()
			return marshal.Null(), res.err
		}
		reply := &w.reply
		if reply.Status != marshal.StatusOK {
			retry := false
			var delay time.Duration
			l.mu.Lock()
			l.markDoneLocked(call.Seq)
			if reply.Status == marshal.StatusOverload {
				l.stats.OverloadDenied++
				if retryB != nil {
					if series == nil {
						series = retryB.Series()
					}
					if d, ok := series.Next(); ok &&
						(deadline == 0 || l.clk.Now().UnixNano()+int64(d) < deadline) {
						retry, delay = true, d
						l.stats.OverloadRetries++
					}
				}
			}
			l.stagedLocked(reply, len(res.frame))
			l.mu.Unlock()
			apiErr := &APIError{Func: fd.Name, Status: reply.Status, Detail: reply.Err}
			l.release(w, res.frame)
			if retry {
				l.clk.Sleep(delay)
				now = l.clk.Now()
				continue
			}
			return marshal.Null(), apiErr
		}
		replyCopied, err := scatter(fd, reply, args, outs)
		l.mu.Lock()
		l.markDoneLocked(call.Seq)
		l.stats.BytesCopied += replyCopied
		if reply.Err != "" {
			l.deferred = fmt.Errorf("guest: %s", reply.Err)
		}
		l.stagedLocked(reply, len(res.frame))
		l.mu.Unlock()
		ret := reply.Ret
		if l.recvOwned {
			// The frame is about to be recycled: a buffer return value is
			// copied out first.
			ret = ret.Clone()
		}
		l.release(w, res.frame)
		if err != nil {
			return marshal.Null(), err
		}
		return ret, nil
	}
}

// stagedLocked folds one reply into the byte and per-stage latency
// accumulators. The reply stage closes when results reach the caller, so
// output scatter (which can copy large buffers) is charged to it; stamps are
// recorded on error returns too, since a failed call consumed the same stack
// path. Called with l.mu held, on the calling goroutine — the demux
// goroutine never touches the stats lock.
func (l *Lib) stagedLocked(reply *marshal.Reply, frameLen int) {
	l.stats.BytesRecv += uint64(frameLen)
	st := reply.Stamps
	if st.Done == 0 || st.Encode == 0 || st.Admit == 0 || st.Dispatch == 0 {
		return
	}
	recv := l.clk.Now().UnixNano()
	l.stats.StagedCalls++
	l.stats.StageEncodeToAdmit += time.Duration(st.Admit - st.Encode)
	l.stats.StageAdmitToDispatch += time.Duration(st.Dispatch - st.Admit)
	l.stats.StageExec += time.Duration(st.Done - st.Dispatch)
	l.stats.StageReply += time.Duration(recv - st.Done)
}

// release ends a call's hold on its reply: the frame is recycled (when the
// endpoint handed it over for good) and the waiter, whose record aliases the
// frame, goes back to the pool. Nothing returned to the caller may alias
// either after this.
func (l *Lib) release(w *waiter, frame []byte) {
	if l.recvOwned {
		framebuf.Put(frame)
	}
	waiterPool.Put(w)
}

// register installs a (pooled) waiter for seq and lazily starts the
// demultiplexer. Called with l.mu held; fails immediately if the demux
// has already died (its error is sticky — no reply can ever arrive).
func (l *Lib) register(seq uint64) (*waiter, error) {
	l.demuxOnce.Do(func() { go l.demux() })
	l.waitMu.Lock()
	defer l.waitMu.Unlock()
	if l.recvErr != nil {
		return nil, l.recvErr
	}
	if l.waiters == nil {
		l.waiters = make(map[uint64]*waiter)
	}
	w := waiterPool.Get().(*waiter)
	l.waiters[seq] = w
	return w, nil
}

func (l *Lib) unregister(seq uint64) {
	l.waitMu.Lock()
	delete(l.waiters, seq)
	// An abandoned call may still see a late reply; count it retired so
	// that reply is recognized as stale under failover.
	l.noteRetiredLocked(seq)
	l.waitMu.Unlock()
}

// noteRetiredLocked (waitMu held) records that seq's reply has been
// delivered, discarded or abandoned: any further reply for a seq at or
// below the high-water mark is a recovery duplicate, not a new call's.
func (l *Lib) noteRetiredLocked(seq uint64) {
	if seq > l.retiredHi {
		l.retiredHi = seq
	}
}

// demux is the reply demultiplexer: it owns the endpoint's receive side,
// routing each reply to the goroutine registered for its sequence number.
// Any receive or protocol failure is terminal — every in-flight and
// future call fails with the same error, because once the reply stream is
// broken no awaited reply can be trusted to arrive.
func (l *Lib) demux() {
	// Replies nobody is waiting for (control notices, duplicates) are still
	// decoded, into this scratch record, so a malformed frame is terminal
	// whichever call it claims to answer.
	var scratch marshal.Reply
	for {
		frame, err := l.ep.Recv()
		if err != nil {
			l.failWaiters(err)
			return
		}
		// The sequence number leads the frame; claim the waiter first so
		// the reply decodes straight into the record its caller will read.
		var w *waiter
		seq, ok := marshal.ReplySeq(frame)
		if ok {
			l.waitMu.Lock()
			if w = l.waiters[seq]; w != nil {
				delete(l.waiters, seq)
				l.noteRetiredLocked(seq)
			}
			l.waitMu.Unlock()
		}
		if w != nil {
			if err := marshal.DecodeReplyInto(&w.reply, frame); err != nil {
				w.ch <- demuxResult{err: err}
				l.failWaiters(err)
				return
			}
			// Buffered channel: delivery never blocks the demux loop.
			w.ch <- demuxResult{frame: frame}
			continue
		}
		if err := marshal.DecodeReplyInto(&scratch, frame); err != nil {
			l.failWaiters(err)
			return
		}
		if seq >= marshal.CtrlSeqBase {
			// Guardian control notices ride the reply channel in a reserved
			// sequence range; they are never a call's reply.
			l.handleControl(&scratch)
			if l.recvOwned {
				framebuf.Put(frame)
			}
			continue
		}
		l.waitMu.Lock()
		_, disc := l.discard[seq]
		stale := !disc && l.fo != nil && seq <= l.retiredHi
		if disc {
			// The reply of a completed call that was resubmitted purely to
			// rebuild server state: the caller got its result long ago.
			delete(l.discard, seq)
			l.noteRetiredLocked(seq)
		} else if stale {
			// A duplicate reply for a call that already retired: the dead
			// server got its reply onto the wire before the crash and it
			// arrived after recovery short-circuited the resubmitted copy
			// from the record log (or the reverse order). At-least-once
			// recovery makes such duplicates expected, not poison.
			l.staleDup++
		}
		l.waitMu.Unlock()
		if !disc && !stale {
			// A reply nobody awaits means the two sides disagree about
			// the call stream — the sequence space is poisoned.
			l.failWaiters(fmt.Errorf("%w: reply for unknown call seq %d", ErrProtocol, seq))
			return
		}
		if l.recvOwned {
			framebuf.Put(frame)
		}
	}
}

// failWaiters records the demux's terminal error and delivers it to every
// registered waiter.
func (l *Lib) failWaiters(err error) {
	l.waitMu.Lock()
	if l.recvErr == nil {
		l.recvErr = err
	}
	for seq, w := range l.waiters {
		delete(l.waiters, seq)
		w.ch <- demuxResult{err: err}
	}
	l.waitMu.Unlock()
}

// deadlinePressure reports whether any batched call's remaining deadline
// budget is within its flush slack (per-call, defaulting to the library's
// WithDeadlineSlack setting). Called with l.mu held.
func (l *Lib) deadlinePressure(now time.Time) bool {
	nowN := now.UnixNano()
	for i := range l.pendingMeta {
		pc := &l.pendingMeta[i]
		if pc.slack <= 0 {
			continue
		}
		if d := pc.deadline; d != 0 && d-nowN <= int64(pc.slack) {
			return true
		}
	}
	return false
}

// maxFrameHint caps the batch-frame size hint at what a full batch of
// payload-free calls needs: past it a frame is payload, not calls, and the
// next frame is unlikely to need the same again.
const maxFrameHint = 16 << 10

// startPending opens a batch frame if none is under construction. The frame
// is drawn at the size the previous batch needed (or this first call, if
// larger) rather than at a token size that append then regrows three or
// four times on the way to a typical batch.
func (l *Lib) startPending(first int) {
	if l.pendingN != 0 {
		return
	}
	if l.pendingBuf == nil {
		l.pendingBuf = framebuf.Get(max(l.frameHint, 2+4+first))
	}
	l.pendingBuf = append(l.pendingBuf[:0], 0, 0) // count patched at flush
}

// reservePending makes room for n more bytes in the open batch frame. The
// frame was sized for the batch's first call (or the previous batch), so a
// 1 MB write queued behind four clSetKernelArgs does not fit: the batch then
// moves to a pooled frame of the needed size and the outgrown frame goes
// back to the pool. Letting append regrow the frame would allocate the
// payload's size afresh and strand the pooled buffer. The new frame is at
// least double what is queued, the headroom append would leave: a long run
// of small calls moves a handful of times, and a frame past framebuf's
// largest class — which Get sizes exactly — is not copied again by every
// call that follows. Segment and pendingMeta offsets are offsets, and stay
// valid.
func (l *Lib) reservePending(n int) {
	need := len(l.pendingBuf) + n
	if need <= cap(l.pendingBuf) {
		return
	}
	old := l.pendingBuf
	l.pendingBuf = append(framebuf.Get(max(need, 2*len(old))), old...)
	framebuf.Put(old)
}

// appendPending encodes call directly into the batch frame under
// construction: calls are marshalled exactly once, into the buffer the
// transport will carry. The buffer is drawn from the frame pool; it
// returns there after a copying transport sends it, or cycles through the
// server's dispatch refcount on ownership-transferring transports.
func (l *Lib) appendPending(fd *cava.FuncDesc, call *marshal.Call, deadline int64, slack time.Duration, async bool) {
	size := marshal.CallSize(call)
	l.startPending(size)
	l.reservePending(4 + size)
	// Length prefix placeholder, then the call body.
	start := len(l.pendingBuf)
	l.pendingBuf = append(l.pendingBuf, 0, 0, 0, 0)
	l.pendingBuf = marshal.AppendCall(l.pendingBuf, call)
	n := len(l.pendingBuf) - start - 4
	l.pendingBuf[start] = byte(n)
	l.pendingBuf[start+1] = byte(n >> 8)
	l.pendingBuf[start+2] = byte(n >> 16)
	l.pendingBuf[start+3] = byte(n >> 24)
	l.pendingMeta = append(l.pendingMeta, pendingCall{
		off: start, end: len(l.pendingBuf), deadline: deadline, slack: slack, async: async, seq: call.Seq,
	})
	l.pendingN++
	if deadline != 0 {
		l.pendingDL++
	}
	if l.fo != nil {
		// Retain an owned copy of the encoded call for resubmission; the
		// batch frame itself is recycled or handed off after the send.
		l.fo.add(retained{seq: call.Seq, track: fd.Track.Kind, sync: !async}, l.pendingBuf[start+4:])
		l.retainTrimLocked()
	}
}

// appendPendingSegs is appendPending for the borrowed scatter-gather
// path: the call is encoded with AppendCallSegments, so large in-buffer
// payloads stay in the caller's memory and are recorded as segments whose
// offsets are absolute in pendingBuf. The per-call length prefix holds
// the virtual length — physical bytes plus borrowed segment bytes —
// because that is the frame the receiver sees once the vectored send has
// interleaved the payloads. Only a synchronous call flushed inside the
// same critical section may borrow (the caller's buffers are stable only
// until its call returns), so the segments always belong to the batch's
// final call, and retention is never active on this path.
func (l *Lib) appendPendingSegs(call *marshal.Call, deadline int64, slack time.Duration) {
	size := marshal.CallSegmentsSize(call, 0)
	l.startPending(size)
	l.reservePending(4 + size)
	start := len(l.pendingBuf)
	l.pendingBuf = append(l.pendingBuf, 0, 0, 0, 0)
	var segs []marshal.Segment
	l.pendingBuf, segs = marshal.AppendCallSegments(l.pendingBuf, call, 0)
	n := len(l.pendingBuf) - start - 4 + marshal.SegmentsLen(segs)
	l.pendingBuf[start] = byte(n)
	l.pendingBuf[start+1] = byte(n >> 8)
	l.pendingBuf[start+2] = byte(n >> 16)
	l.pendingBuf[start+3] = byte(n >> 24)
	l.pendingSegs = segs
	l.pendingMeta = append(l.pendingMeta, pendingCall{
		off: start, end: len(l.pendingBuf), deadline: deadline, slack: slack, async: false, seq: call.Seq,
	})
	l.pendingN++
	if deadline != 0 {
		l.pendingDL++
	}
}

// retainTrimLocked evicts the oldest retained entries once the window
// overflows its cap. Evicting an entry whose result is still outstanding
// makes that call unrecoverable — counted, never silent.
func (l *Lib) retainTrimLocked() {
	live := l.fo.live()
	over := len(live) - l.fo.policy.Retain
	if over <= 0 {
		return
	}
	for i := range live[:over] {
		if !live[i].done {
			l.stats.RetainDropped++
		}
	}
	l.fo.drop(over)
}

// markDoneLocked records that a call's outcome reached its caller: a
// recovery must not replay it with a live waiter. Called with l.mu held.
func (l *Lib) markDoneLocked(seq uint64) {
	if l.fo == nil {
		return
	}
	if r := l.fo.find(seq); r != nil {
		r.done = true
	}
}

// takePending finalizes and detaches the batch frame, returning it with
// the count of calls it carries and any borrowed segments of its final
// (synchronous) call. Batched asynchronous calls whose deadline passed
// while they waited are excised — dropped locally and counted — rather
// than forwarded to be denied upstream; an excision rebuilds the frame by
// copying, so borrowed segments are spliced in then (the copy fallback)
// and the rebuilt frame is returned segment-free. The transport takes
// ownership of the returned frame, so the next batch starts fresh.
func (l *Lib) takePending() ([]byte, int, []marshal.Segment) {
	b, n, segs := l.pendingBuf, l.pendingN, l.pendingSegs
	// Only a batched call that carries a deadline can have expired, so a
	// deadline-free batch (the common case) costs no clock read.
	var nowN int64
	if l.pendingDL > 0 {
		nowN = l.clk.Now().UnixNano()
	}
	drop := 0
	if l.pendingDL > 0 || l.fo != nil {
		for i := range l.pendingMeta {
			exp := l.pendingMeta[i].expired(nowN)
			if exp {
				drop++
			}
			if l.fo != nil {
				if r := l.fo.find(l.pendingMeta[i].seq); r != nil {
					if exp {
						r.done = true // excised locally: it will never execute
					} else {
						r.sent = true
					}
				}
			}
		}
	}
	if drop > 0 {
		kept := framebuf.Get(len(b) + marshal.SegmentsLen(segs))
		kept = append(kept, 0, 0)
		for i := range l.pendingMeta {
			m := &l.pendingMeta[i]
			if m.expired(nowN) {
				continue
			}
			if len(segs) > 0 && !m.async {
				rel := make([]marshal.Segment, len(segs))
				for j, s := range segs {
					rel[j] = marshal.Segment{Off: s.Off - m.off, Bytes: s.Bytes}
				}
				kept = marshal.SpliceSegments(kept, b[m.off:m.end], rel)
				continue
			}
			kept = append(kept, b[m.off:m.end]...)
		}
		framebuf.Put(b)
		b = kept
		segs = nil
		n -= drop
		l.stats.BatchExpiredDrops += uint64(drop)
	}
	if n > 0 {
		b[0] = byte(n)
		b[1] = byte(n >> 8)
	}
	l.frameHint = min(len(b), maxFrameHint)
	l.pendingBuf = nil
	l.pendingN = 0
	l.pendingDL = 0
	l.pendingMeta = l.pendingMeta[:0]
	l.pendingSegs = nil
	return b, n, segs
}

// sendVecSegs hands a segmented batch to the transport's vectored send:
// the physical frame is split at each segment offset and the borrowed
// payload slices interleaved, so one writev carries the virtual frame
// without it ever being assembled in user space.
func sendVecSegs(vec transport.VectoredSender, frame []byte, segs []marshal.Segment) error {
	parts := marshal.AppendParts(make([][]byte, 0, 2*len(segs)+1), frame, segs)
	return vec.SendVec(parts, len(frame)+marshal.SegmentsLen(segs))
}

// bytesPayload sums one call's KindBytes argument payloads — the bytes
// the copying marshal path memcpys into the frame.
func bytesPayload(values []marshal.Value) uint64 {
	var n uint64
	for i := range values {
		if values[i].Kind() == marshal.KindBytes {
			n += uint64(len(values[i].Bytes()))
		}
	}
	return n
}

// hasLargeBytes reports whether any argument payload is big enough for
// the borrowed scatter-gather path to beat the copy.
func hasLargeBytes(values []marshal.Value) bool {
	for i := range values {
		if values[i].Kind() == marshal.KindBytes && len(values[i].Bytes()) >= marshal.SegmentThreshold {
			return true
		}
	}
	return false
}

// Flush transmits all queued asynchronous calls without waiting for any
// execution acknowledgment.
func (l *Lib) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Lib) flushLocked() error {
	if l.pendingN == 0 {
		return nil
	}
	// Only the synchronous path creates borrowed segments, and it takes
	// its batch inside the same critical section, so a flush never sees
	// any: async-only batches are always fully materialized.
	batch, n, _ := l.takePending()
	if n == 0 {
		// Every batched call expired while queued; nothing to send.
		framebuf.Put(batch)
		return nil
	}
	l.stats.Batches++
	l.stats.BytesSent += uint64(len(batch))
	err := l.ep.Send(batch)
	if err == nil && l.sendCopies {
		framebuf.Put(batch)
	}
	return err
}

// Close flushes pending asynchronous calls and closes the endpoint.
func (l *Lib) Close() error {
	l.closeOnce.Do(func() {
		if l.fo != nil {
			close(l.fo.done)
		}
	})
	if err := l.Flush(); err != nil && !errors.Is(err, transport.ErrClosed) {
		l.ep.Close()
		return err
	}
	return l.ep.Close()
}

// ---------------------------------------------------------------------------
// Failover: control notices, retention trimming, window resubmission.

// handleControl routes one guardian notice from the demux to foLoop. Runs
// on the demux goroutine, so it must never take l.mu or block for long.
func (l *Lib) handleControl(rep *marshal.Reply) {
	if l.fo == nil {
		return
	}
	kind, epoch, w, ok := marshal.DecodeControl(rep)
	if !ok {
		return
	}
	select {
	case l.fo.ctrl <- ctrlMsg{kind: kind, epoch: epoch, w: w}:
	case <-l.fo.done:
	}
}

func (l *Lib) foLoop() {
	for {
		select {
		case <-l.fo.done:
			return
		case msg := <-l.fo.ctrl:
			switch msg.kind {
			case marshal.CtrlCheckpoint:
				l.trimRetained(msg.w)
			case marshal.CtrlRecover:
				l.resubmit(msg.epoch, msg.w)
			case marshal.CtrlDead:
				l.failRetryable(msg.epoch)
			}
		}
	}
}

// trimRetained drops retained entries a checkpoint now covers: the server
// can rebuild their effects from its snapshot, so resubmission will never
// need their frames.
func (l *Lib) trimRetained(w uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := l.fo.live()
	n := 0
	for n < len(live) && live[n].seq <= w {
		n++
	}
	l.fo.drop(n)
}

// resubmit absorbs a recovery onto endpoint epoch e with watermark w: every
// unacked call past the watermark is re-sent in sequence order under the
// new epoch. Calls whose results already reached their callers are
// filtered by track kind — creates, configs and destroys were rebuilt (or
// stayed applied) by the guardian's replay, while modifies and untracked
// calls must re-execute for their state effects, with the second reply
// discarded. In-flight calls keep their waiters and simply ride the
// resubmission; the guardian short-circuits any whose original actually
// completed.
func (l *Lib) resubmit(epoch uint32, w uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.epoch {
		return // duplicate or stale notice
	}
	l.epoch = epoch
	l.stats.Reconnects++
	if w > l.seq {
		// A fresh library attached to a guardian rehydrated from a mirrored
		// log (Config.Restore) starts its sequence space at zero, but the
		// restored watermark already covers mirrored seqs: jump past them so
		// new calls never collide with replayed entries.
		l.seq = w
	}

	// Un-flushed batched calls were encoded under the old epoch; patch
	// them in place so the router does not fence them when they flush.
	for i := range l.pendingMeta {
		m := &l.pendingMeta[i]
		marshal.PatchCallResubmit(l.pendingBuf[m.off+4:m.end], epoch)
	}

	var bodies [][]byte
	resubmitting := make(map[uint64]bool)
	live := l.fo.live()
	for i := range live {
		r := &live[i]
		if r.seq <= w || !r.sent {
			continue // covered by the checkpoint, or still pending locally
		}
		if r.done && r.track == spec.TrackDestroy {
			// The destroy took effect; replay pruned the object, so there
			// is nothing to re-execute (the guardian synthesizes success
			// for any in-flight copy).
			continue
		}
		// Everything else past the watermark re-executes on the new
		// server in true sequence order — including completed creates and
		// configs, which replay cannot safely run early because they may
		// depend on unreplayed modifies (build-then-create-kernel). The
		// guardian rebinds their fresh handles to the recorded originals
		// and the duplicate reply is discarded below.
		marshal.PatchCallResubmit(r.body, epoch)
		bodies = append(bodies, r.body)
		resubmitting[r.seq] = true
		if r.done {
			l.addDiscard(r.seq)
		}
		l.stats.ResubmittedCalls++
	}

	// In-flight calls past the watermark whose frames are not retained
	// (window overflow) can never be replayed: fail them loudly.
	l.waitMu.Lock()
	for seq, wt := range l.waiters {
		if seq > w && seq < marshal.CtrlSeqBase && !resubmitting[seq] {
			delete(l.waiters, seq)
			l.stats.RetryableFailed++
			wt.ch <- demuxResult{err: fmt.Errorf("%w: frame not retained (epoch %d)", averr.ErrRetryable, epoch)}
		}
	}
	l.waitMu.Unlock()

	for len(bodies) > 0 {
		n := len(bodies)
		if n > l.batchLimit {
			n = l.batchLimit
		}
		frame := marshal.EncodeBatch(bodies[:n])
		bodies = bodies[n:]
		l.stats.Batches++
		l.stats.BytesSent += uint64(len(frame))
		if err := l.ep.Send(frame); err != nil {
			return
		}
		if l.sendCopies {
			framebuf.Put(frame)
		}
	}
}

func (l *Lib) addDiscard(seq uint64) {
	l.waitMu.Lock()
	if l.discard == nil {
		l.discard = make(map[uint64]struct{})
	}
	l.discard[seq] = struct{}{}
	l.waitMu.Unlock()
}

// failRetryable handles an abandoned recovery: no replacement server will
// ever answer, so every in-flight and future call fails with ErrRetryable.
func (l *Lib) failRetryable(epoch uint32) {
	err := fmt.Errorf("%w: server recovery abandoned (epoch %d)", averr.ErrRetryable, epoch)
	n := uint64(0)
	l.waitMu.Lock()
	if l.recvErr == nil {
		l.recvErr = err
	}
	for seq, w := range l.waiters {
		delete(l.waiters, seq)
		w.ch <- demuxResult{err: err}
		n++
	}
	l.waitMu.Unlock()
	l.mu.Lock()
	l.stats.RetryableFailed += n
	l.mu.Unlock()
}

// elemDst remembers one out-element pointer Call was handed, to store the
// element through once Invoke has left it in the argument vector.
type elemDst struct {
	param int
	dst   any
}

// convertArg turns one untyped argument into the wire value Invoke expects
// for its parameter.
func convertArg(pd *cava.ParamDesc, arg any) (marshal.Value, error) {
	switch {
	case !pd.IsPointer:
		return convertScalar(pd, arg)
	case arg == nil:
		return marshal.Null(), nil
	case pd.IsElement:
		switch arg.(type) {
		case *marshal.Handle:
			if pd.Kind != spec.KindHandle {
				return marshal.Null(), fmt.Errorf("want %v element, got *marshal.Handle", pd.Kind)
			}
		case *int32, *int64, *uint32, *uint64, *float32, *float64:
		default:
			return marshal.Null(), fmt.Errorf("want pointer destination for out element, got %T", arg)
		}
		return marshal.Len(uint64(pd.ElemSize)), nil
	}
	buf, ok := arg.([]byte)
	if !ok {
		return marshal.Null(), fmt.Errorf("want []byte, got %T", arg)
	}
	return marshal.BytesVal(buf), nil
}

func convertScalar(pd *cava.ParamDesc, arg any) (marshal.Value, error) {
	switch pd.Kind {
	case spec.KindHandle:
		switch a := arg.(type) {
		case marshal.Handle:
			return marshal.HandleVal(a), nil
		case nil:
			return marshal.Null(), nil
		}
		return marshal.Null(), fmt.Errorf("want marshal.Handle, got %T", arg)
	case spec.KindString:
		if s, ok := arg.(string); ok {
			return marshal.Str(s), nil
		}
		return marshal.Null(), fmt.Errorf("want string, got %T", arg)
	case spec.KindBool:
		switch a := arg.(type) {
		case bool:
			return marshal.Bool(a), nil
		case int:
			return marshal.Bool(a != 0), nil
		}
		return marshal.Null(), fmt.Errorf("want bool, got %T", arg)
	case spec.KindFloat:
		switch a := arg.(type) {
		case float32:
			return marshal.Float(float64(a)), nil
		case float64:
			return marshal.Float(a), nil
		}
		return marshal.Null(), fmt.Errorf("want float, got %T", arg)
	case spec.KindInt, spec.KindUint:
		n, err := toInt64(arg)
		if err != nil {
			return marshal.Null(), err
		}
		if pd.Kind == spec.KindUint {
			return marshal.Uint(uint64(n)), nil
		}
		return marshal.Int(n), nil
	}
	return marshal.Null(), fmt.Errorf("unsupported scalar kind %v", pd.Kind)
}

func toInt64(arg any) (int64, error) {
	switch a := arg.(type) {
	case int:
		return int64(a), nil
	case int32:
		return int64(a), nil
	case int64:
		return a, nil
	case uint:
		return int64(a), nil
	case uint32:
		return int64(a), nil
	case uint64:
		return int64(a), nil
	case uintptr:
		return int64(a), nil
	}
	return 0, fmt.Errorf("want integer, got %T", arg)
}

// scatter moves reply outputs to the caller: out / inout buffer contents are
// copied into the bound destinations, and each out element the caller asked
// for replaces its placeholder in args (Null when the server set none), for
// the stub to store. It returns the out-payload bytes copied from the reply
// frame into caller buffers, the D2H half of Stats.BytesCopied.
func scatter(fd *cava.FuncDesc, reply *marshal.Reply, args []marshal.Value, outs []outBinding) (copied uint64, err error) {
	if fd.NumOuts == 0 {
		return 0, nil
	}
	if len(reply.Outs) != fd.NumOuts {
		return 0, fmt.Errorf("%w: %s: %d outs, want %d", ErrProtocol, fd.Name, len(reply.Outs), fd.NumOuts)
	}
	// Bindings were collected in parameter order, so one forward walk over
	// the parameters pairs each buffer with its binding and its reply slot.
	slot, oi := 0, 0
	for i := range fd.Params {
		pd := &fd.Params[i]
		if !pd.Out() {
			continue
		}
		v := &reply.Outs[slot]
		slot++
		if args[i].IsNull() {
			continue // the caller passed no destination
		}
		if pd.IsElement {
			if !v.IsNull() {
				if _, scalar := v.AsInt(); !scalar {
					return copied, fmt.Errorf("%w: %s: element is %v, want a scalar", ErrProtocol, fd.Name, v.Kind())
				}
				if pd.Kind == spec.KindHandle && v.Kind() != marshal.KindHandle {
					return copied, fmt.Errorf("%w: %s: element is %v, want handle", ErrProtocol, fd.Name, v.Kind())
				}
			}
			args[i] = *v
			continue
		}
		ob := &outs[oi]
		oi++
		if v.IsNull() {
			continue
		}
		if v.Kind() != marshal.KindBytes || len(v.Bytes()) != len(ob.buf) {
			return copied, fmt.Errorf("%w: %s: out buffer %d bytes, want %d", ErrProtocol, fd.Name, len(v.Bytes()), len(ob.buf))
		}
		copied += uint64(copy(ob.buf, v.Bytes()))
	}
	return copied, nil
}

// storeElement writes an out element Invoke left in the argument vector
// through the pointer Call was given; a Null element (the server set none)
// leaves the destination untouched.
func storeElement(dst any, v marshal.Value) error {
	if v.IsNull() {
		return nil
	}
	n, _ := v.AsInt()
	f, _ := v.AsFloat()
	switch d := dst.(type) {
	case *marshal.Handle:
		*d = v.Handle()
	case *int32:
		*d = int32(n)
	case *int64:
		*d = n
	case *uint32:
		*d = uint32(n)
	case *uint64:
		*d = uint64(n)
	case *float32:
		*d = float32(f)
	case *float64:
		*d = f
	default:
		return fmt.Errorf("unsupported element destination %T", dst)
	}
	return nil
}

// Package marshal defines the wire format for forwarded API calls.
//
// Every API invocation intercepted by the guest library is encoded as a Call
// frame, carried over a transport to the router and on to the API server,
// which answers with a Reply frame. The format is a compact, self-describing
// little-endian encoding built by hand (no reflection on the hot path): a
// frame is a header followed by a sequence of tagged values.
//
// Buffer arguments are direction-aware. An input buffer travels guest→server
// in the Call; an output buffer travels server→guest in the Reply; an in/out
// buffer travels both ways. The direction itself is not on the wire — it is
// part of the API specification shared by both sides — but the encoding of a
// buffer records only what that direction requires (an out-buffer in a Call
// frame is just its length, so the server can allocate backing space).
package marshal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ava/internal/averr"
)

// Kind identifies the type of a wire value.
type Kind uint8

// Wire value kinds.
const (
	KindNull   Kind = iota // absent pointer / nil buffer
	KindInt                // signed 64-bit integer
	KindUint               // unsigned 64-bit integer
	KindFloat              // IEEE-754 64-bit float
	KindBool               // boolean
	KindString             // UTF-8 string
	KindBytes              // opaque byte buffer (with contents)
	KindLen                // buffer placeholder: length only, no contents
	KindHandle             // opaque object handle
	KindRegRef             // registered-buffer reference: {region id, offset, length}
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindUint:
		return "uint"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindLen:
		return "len"
	case KindHandle:
		return "handle"
	case KindRegRef:
		return "regref"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Handle is an opaque reference to a server-side object (a context, buffer,
// kernel, graph, ...). Zero is never a valid handle.
type Handle uint64

// RegRef locates a byte range inside a registered buffer region: the
// zero-copy argument form for transports whose two ends share memory. The
// guest registers a region once (transport.BufRegistry), then passes
// {region id, offset} pairs instead of buffer contents; the server resolves
// the reference against the same registry and reads or writes the region
// in place. The byte length is the value's Uint, mirroring KindLen.
type RegRef struct {
	ID  uint32 // region identifier assigned at registration
	Off uint64 // byte offset of the range within the region
}

// Flags on a Call frame.
const (
	// FlagAsync marks a call forwarded asynchronously: the guest does not
	// wait for the Reply and the server may coalesce error reporting.
	FlagAsync uint16 = 1 << iota
	// FlagBatched marks a call delivered as part of a batch flush.
	FlagBatched
	// FlagReplay marks a call re-issued by the migration replay engine;
	// the router must not charge it against rate limits.
	FlagReplay
	// FlagResubmit marks a call resubmitted by the guest library after an
	// API-server failover. Like FlagReplay it is exempt from rate limits
	// and shedding (the call was already admitted once), and the failover
	// guardian uses it to apply the exactly-once dedupe rules.
	FlagResubmit
)

// FlagsKnown is the set of flag bits this version of the stack assigns
// meaning to. Unknown bits must round-trip unmodified through every layer —
// the router and server test individual known bits and never reject or mask
// the rest — so a newer guest can talk through an older router (forward
// compatibility on the wire).
const FlagsKnown = FlagAsync | FlagBatched | FlagReplay | FlagResubmit

// Reserved sequence-number ranges. Ordinary calls allocate sequence numbers
// from 1 upward; the failover layer claims the top two quarters of the seq
// space for frames that must share the reply channel without ever colliding
// with a real call.
const (
	// CtrlSeqBase marks control replies (checkpoint / recover / dead
	// notices) injected by the failover guardian toward the guest.
	CtrlSeqBase uint64 = 1 << 62
	// MarkerSeqBase marks barrier probe calls injected by the failover
	// guardian toward the server (their error replies double as quiesce
	// acknowledgements and liveness heartbeats).
	MarkerSeqBase uint64 = 1 << 63
)

// Reserved function indices. Ordinary functions index into the API's
// StackDescriptor from 0; the top of the Func space is claimed by stack
// control calls so they can share the call channel with any API. ^uint32(0)
// itself stays unassigned on purpose: the failover guardian's barrier
// markers use it precisely because the server rejects it as unknown.
const (
	// FuncRebind asks the server to move live objects from fresh replay
	// handles back under their recorded handles: args are [fresh, recorded]
	// Handle pairs, every pair of one replayed reply in one call so the
	// server can apply them two-phase. Issued by the failover guardian
	// during replay so the guest's saved handles stay valid on the
	// replacement server.
	FuncRebind uint32 = ^uint32(0) - 1
	// FuncRestore asks the server to overwrite an object's stateful payload
	// from a checkpoint snapshot: args are [Handle, Bytes]. Ret is Int(1)
	// when the object was restored and Int(0) when the handle is unknown
	// (the snapshot outlived the object — skipped, not fatal).
	FuncRestore uint32 = ^uint32(0) - 2
	// FuncSnapshot asks the server for the object state replay cannot
	// rebuild: one arg, full, an Int. Ret is a Bytes value holding an
	// EncodeObjectDeltas payload, one delta per stateful object in the VM's
	// handle table. full=0 drains each object's dirty ranges since the
	// previous capture, which the caller composes onto the states it holds
	// from it (ApplyObjectDelta); full=1 — the caller holds no base, or a
	// delta did not compose — answers every object as a Full delta. Either
	// form moves the silo's dirty watermark. Issued by the failover guardian
	// over the link to the serving server; the captured states later replay
	// onto a replacement server as FuncRestore calls.
	FuncSnapshot uint32 = ^uint32(0) - 3
)

// Stamps is the per-stage timestamp block a call accumulates as it crosses
// the stack, the raw material for per-stage latency breakdowns. Each value
// is absolute nanoseconds (UnixNano) on the clock of the layer that stamped
// it; 0 means "not stamped yet". Within one host the domains coincide and
// differences between adjacent stamps are true stage latencies; across a
// disaggregated (TCP) hop the Encode→Admit difference additionally absorbs
// any clock skew between the machines.
type Stamps struct {
	Encode   int64 // guest library, when the call was marshalled
	Admit    int64 // router, after policing/scheduling, before forwarding
	Dispatch int64 // server, before handler invocation
	Done     int64 // server, after handler return
}

// Call is one forwarded API invocation.
type Call struct {
	Seq   uint64 // per-VM sequence number, assigned by the guest library
	VM    uint32 // VM identifier, stamped by the hypervisor endpoint
	Func  uint32 // function index in the API's StackDescriptor
	Flags uint16 // FlagAsync etc.
	// Priority orders the call against other VMs' calls in a
	// priority-aware router scheduler; higher is more urgent, 0 is the
	// default class.
	Priority uint8
	// Epoch is the endpoint epoch the guest believes it is talking to.
	// The failover layer bumps the epoch on every API-server recovery;
	// the router drops frames stamped with a stale epoch so calls that
	// raced a failover cannot reach the replacement server twice.
	Epoch uint32
	// Deadline is the absolute time (UnixNano) after which the caller no
	// longer wants the result; 0 means no deadline. It is stamped by the
	// guest in its own clock domain and re-anchored ("clock-domain-
	// translated") into the router's domain at admission: each hop
	// computes the remaining budget against the previous hop's stamp and
	// rewrites the deadline relative to its own clock, the same
	// translation gRPC applies to propagated deadlines.
	Deadline int64
	// Stamps is the per-stage timestamp block; the guest fills Encode,
	// the router Admit. Dispatch/Done are filled server-side and travel
	// back in the Reply (they are carried here too so the block
	// round-trips whole through any layer that re-encodes the call).
	Stamps Stamps
	Args   []Value // arguments in declaration order
}

// Status codes in a Reply frame.
type Status uint8

// Reply statuses. Unknown (future) status values must round-trip through
// every layer unmodified: decode preserves the raw byte, String falls back
// to a numeric form, and the guest surfaces the numeric status rather than
// collapsing it into one of the known codes.
const (
	StatusOK        Status = iota // call executed; Ret/Outs valid
	StatusAPIError                // call executed; API returned a failure code in Ret
	StatusDenied                  // router rejected the call (policy/verification)
	StatusInternal                // stack-internal failure; Err describes it
	StatusDeadline                // the call's deadline expired before completion
	StatusCanceled                // the call was aborted by a cancellation signal
	StatusOverload                // the router shed the call under overload; retry later
	StatusRetryable               // the call was lost to a failover; safe to reissue
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAPIError:
		return "api-error"
	case StatusDenied:
		return "denied"
	case StatusInternal:
		return "internal"
	case StatusDeadline:
		return "deadline-exceeded"
	case StatusCanceled:
		return "canceled"
	case StatusOverload:
		return "overloaded"
	case StatusRetryable:
		return "retryable"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Sentinel maps a status to the stack-wide categorized sentinel it
// represents, or nil for StatusOK and unknown future statuses. Guest-side
// errors unwrap to this, so errors.Is(err, averr.ErrDeadlineExceeded)
// holds end to end no matter which layer expired the call, and
// averr.CategoryOf classifies any wire error for reporting surfaces.
// Every non-OK known status maps to exactly one sentinel and back
// (StatusFor inverts this mapping).
func (s Status) Sentinel() error {
	switch s {
	case StatusAPIError:
		return averr.ErrAPIFailure
	case StatusDenied:
		return averr.ErrDenied
	case StatusInternal:
		return averr.ErrInternal
	case StatusDeadline:
		return averr.ErrDeadlineExceeded
	case StatusCanceled:
		return averr.ErrCanceled
	case StatusOverload:
		return averr.ErrOverloaded
	case StatusRetryable:
		return averr.ErrRetryable
	default:
		return nil
	}
}

// StatusFor inverts Sentinel: it maps an error (arbitrarily %w-wrapped)
// to the wire status that represents it, for layers that turn a local
// error into a Reply. nil maps to StatusOK. Sentinels with no status of
// their own collapse into the nearest wire meaning: ErrBadArg,
// ErrProtocol and ErrUnknownVM are all denials of the call as posed, so
// they travel as StatusDenied (the detail string preserves the specific
// sentinel message for the far side's logs). Unrecognized errors are
// stack-internal by definition.
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, averr.ErrAPIFailure):
		return StatusAPIError
	case errors.Is(err, averr.ErrDeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, averr.ErrCanceled):
		return StatusCanceled
	case errors.Is(err, averr.ErrOverloaded):
		return StatusOverload
	case errors.Is(err, averr.ErrRetryable):
		return StatusRetryable
	case errors.Is(err, averr.ErrDenied),
		errors.Is(err, averr.ErrBadArg),
		errors.Is(err, averr.ErrProtocol),
		errors.Is(err, averr.ErrUnknownVM):
		return StatusDenied
	default:
		return StatusInternal
	}
}

// Reply answers a Call.
type Reply struct {
	Seq    uint64
	Status Status
	// Stamps echoes the call's per-stage timestamp block with the
	// server-side stages (Dispatch, Done) filled in, letting the guest
	// compute a full per-stage latency breakdown from the reply alone.
	Stamps Stamps
	Err    string  // human-readable detail for StatusDenied/StatusInternal
	Ret    Value   // the API return value
	Outs   []Value // out / in-out buffer contents, in argument order
}

// Encoding. Frames are length-prefixed externally by the transport; the
// encodings here are the frame bodies.

var (
	// ErrTruncated reports a frame shorter than its own encoding claims.
	ErrTruncated = errors.New("marshal: truncated frame")
	// ErrBadKind reports an unknown value kind tag.
	ErrBadKind = errors.New("marshal: unknown value kind")
	// ErrTooLarge reports a string/buffer whose declared size is implausible.
	ErrTooLarge = errors.New("marshal: declared size exceeds frame")
)

func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendUint16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

// AppendValue appends the encoding of v to b and returns the extended slice.
func AppendValue(b []byte, v Value) []byte { return appendValue(b, &v) }

// appendValue is AppendValue by pointer, for the argument-vector loops.
func appendValue(b []byte, v *Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindUint, KindHandle, KindLen, KindFloat:
		b = appendUint64(b, v.num)
	case KindBool:
		b = append(b, byte(v.num))
	case KindString:
		b = appendUint32(b, uint32(v.n))
		b = append(b, v.Str()...)
	case KindBytes:
		b = appendUint32(b, uint32(v.n))
		b = append(b, v.Bytes()...)
	case KindRegRef:
		b = appendUint32(b, v.id)
		b = appendUint64(b, v.n)
		b = appendUint64(b, v.num)
	}
	return b
}

// Reader walks an encoded frame: the one bounds-checked cursor every decoder
// of bytes from the network reads through — the Call/Reply hot path here and
// the control envelope, mirror and object-state codecs above it. Every
// method fails with ErrTruncated (ErrTooLarge for a byte run the frame
// cannot hold) instead of reading past the end.
type Reader struct {
	b   []byte
	off int
}

// NewReader starts a Reader at the first byte of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Rest returns the unread remainder, aliasing the frame, without consuming
// it: the opaque tail of a frame, or what is left to size a count against.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// Done reports a frame that was not read to its end.
func (r *Reader) Done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("marshal: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

func (r *Reader) U8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *Reader) U16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *Reader) U32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *Reader) U64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, ErrTooLarge
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

// Bytes32 reads a u32 length and that many bytes, aliasing the frame.
func (r *Reader) Bytes32() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Bytes(int(n))
}

// value decodes the next tagged value into v, overwriting every field (v may
// hold a previous decode's contents).
func (r *Reader) value(v *Value) error {
	k, err := r.U8()
	if err != nil {
		return err
	}
	*v = Value{kind: Kind(k)}
	switch v.kind {
	case KindNull:
	case KindInt, KindUint, KindHandle, KindLen, KindFloat:
		if v.num, err = r.U64(); err != nil {
			return err
		}
	case KindBool:
		b, err := r.U8()
		if err != nil {
			return err
		}
		if b != 0 {
			v.num = 1
		}
	case KindString:
		raw, err := r.Bytes32()
		if err != nil {
			return err
		}
		*v = Str(string(raw))
	case KindBytes:
		raw, err := r.Bytes32()
		if err != nil {
			return err
		}
		// The decoded value aliases the frame. Transports hand each
		// received frame to exactly one owner, and every component that
		// retains buffer contents past the call (the record log, device
		// memory) copies explicitly, so the hot path pays no extra copy.
		*v = BytesVal(raw)
	case KindRegRef:
		if v.id, err = r.U32(); err != nil {
			return err
		}
		if v.n, err = r.U64(); err != nil {
			return err
		}
		if v.num, err = r.U64(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: %d", ErrBadKind, k)
	}
	return nil
}

// values decodes an n-element value vector into dst's backing array when it
// is large enough, so a reused record decodes without allocating. A
// zero-length vector decodes to nil, whatever dst held.
func (r *Reader) values(dst []Value, n int) ([]Value, error) {
	if n == 0 {
		return nil, nil
	}
	// A value is at least its one-byte tag: a count the rest of the frame
	// cannot hold is refused before it sizes anything.
	if n > len(r.b)-r.off {
		return nil, ErrTruncated
	}
	if cap(dst) < n {
		dst = make([]Value, n)
	}
	dst = dst[:n]
	for i := range dst {
		if err := r.value(&dst[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// valueSize returns the exact encoded size of v.
func valueSize(v *Value) int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindString, KindBytes:
		return 5 + int(v.n)
	case KindRegRef:
		return 21
	default:
		return 9
	}
}

// Fixed call-header layout. The hypervisor-owned fields sit at fixed
// offsets so the router can stamp them into an encoded frame in place,
// preserving its zero-copy forwarding fast path.
const (
	callOffVM       = 8  // after Seq
	callOffFlags    = 16 // after Func
	callOffEpoch    = 19 // after Priority
	callOffDeadline = 23 // after Epoch
	callOffAdmit    = 39 // after Stamps.Encode
	// CallHeaderSize is the encoded size of the fixed Call header
	// (everything before the argument vector).
	CallHeaderSize = 65
)

// EncodeCall encodes c as a frame body, sized exactly so large buffer
// arguments never trigger append growth copies.
func EncodeCall(c *Call) []byte {
	return AppendCall(make([]byte, 0, CallSize(c)), c)
}

// CallSize returns the exact encoded size of c.
func CallSize(c *Call) int {
	n := CallHeaderSize
	for i := range c.Args {
		n += valueSize(&c.Args[i])
	}
	return n
}

// AppendCall appends the encoding of c to b.
func AppendCall(b []byte, c *Call) []byte {
	b = appendUint64(b, c.Seq)
	b = appendUint32(b, c.VM)
	b = appendUint32(b, c.Func)
	b = appendUint16(b, c.Flags)
	b = append(b, c.Priority)
	b = appendUint32(b, c.Epoch)
	b = appendUint64(b, uint64(c.Deadline))
	b = appendStamps(b, c.Stamps)
	b = appendUint16(b, uint16(len(c.Args)))
	for i := range c.Args {
		b = appendValue(b, &c.Args[i])
	}
	return b
}

// PatchCallAdmit rewrites the hypervisor-owned header fields of an encoded
// call frame in place: the VM identity (the hypervisor, not the guest,
// asserts it on the wire), the deadline re-anchored into the router's
// clock domain, and the router-admit stamp. The frame must have been
// validated by DecodeCall first.
func PatchCallAdmit(frame []byte, vm uint32, deadline, admit int64) {
	if len(frame) < CallHeaderSize {
		return
	}
	binary.LittleEndian.PutUint32(frame[callOffVM:], vm)
	binary.LittleEndian.PutUint64(frame[callOffDeadline:], uint64(deadline))
	binary.LittleEndian.PutUint64(frame[callOffAdmit:], uint64(admit))
}

// PatchCallResubmit restamps an encoded call frame for resubmission after a
// failover: the endpoint epoch is rewritten to the recovered epoch and
// FlagResubmit is set so the router and guardian recognize the retry. The
// frame must have been validated by DecodeCall first.
func PatchCallResubmit(frame []byte, epoch uint32) {
	if len(frame) < CallHeaderSize {
		return
	}
	flags := binary.LittleEndian.Uint16(frame[callOffFlags:])
	binary.LittleEndian.PutUint16(frame[callOffFlags:], flags|FlagResubmit)
	binary.LittleEndian.PutUint32(frame[callOffEpoch:], epoch)
}

func appendStamps(b []byte, s Stamps) []byte {
	b = appendUint64(b, uint64(s.Encode))
	b = appendUint64(b, uint64(s.Admit))
	b = appendUint64(b, uint64(s.Dispatch))
	b = appendUint64(b, uint64(s.Done))
	return b
}

func (r *Reader) stamps() (Stamps, error) {
	if r.off+32 > len(r.b) {
		return Stamps{}, ErrTruncated
	}
	b := r.b[r.off:]
	r.off += 32
	return Stamps{
		Encode:   int64(binary.LittleEndian.Uint64(b)),
		Admit:    int64(binary.LittleEndian.Uint64(b[8:])),
		Dispatch: int64(binary.LittleEndian.Uint64(b[16:])),
		Done:     int64(binary.LittleEndian.Uint64(b[24:])),
	}, nil
}

// DecodeCall decodes a frame body produced by EncodeCall into a fresh Call.
func DecodeCall(b []byte) (*Call, error) {
	c := &Call{}
	if err := DecodeCallInto(c, b); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeCallInto decodes a frame body produced by EncodeCall into the
// caller-owned record c, overwriting every field and reusing the backing
// array of c.Args when it is large enough: a steady-state decode into a
// reused record allocates nothing (string arguments aside). The result is
// field for field what DecodeCall returns — Args is nil for a call without
// arguments — and, like it, aliases b for buffer contents. On error c holds
// unspecified contents and may be decoded into again.
func DecodeCallInto(c *Call, b []byte) error {
	r := Reader{b: b}
	args := c.Args
	*c = Call{}
	var err error
	if c.Seq, err = r.U64(); err != nil {
		return err
	}
	if c.VM, err = r.U32(); err != nil {
		return err
	}
	if c.Func, err = r.U32(); err != nil {
		return err
	}
	if c.Flags, err = r.U16(); err != nil {
		return err
	}
	if c.Priority, err = r.U8(); err != nil {
		return err
	}
	if c.Epoch, err = r.U32(); err != nil {
		return err
	}
	dl, err := r.U64()
	if err != nil {
		return err
	}
	c.Deadline = int64(dl)
	if c.Stamps, err = r.stamps(); err != nil {
		return err
	}
	n, err := r.U16()
	if err != nil {
		return err
	}
	if c.Args, err = r.values(args, int(n)); err != nil {
		return err
	}
	if r.off != len(b) {
		return fmt.Errorf("marshal: %d trailing bytes in call frame", len(b)-r.off)
	}
	return nil
}

// EncodeReply encodes rep as a frame body, sized exactly.
func EncodeReply(rep *Reply) []byte {
	return AppendReply(make([]byte, 0, ReplySize(rep)), rep)
}

// ReplySize returns the exact encoded size of rep, so a reply frame can be
// drawn at the size it needs instead of growing under append.
func ReplySize(rep *Reply) int {
	n := 47 + len(rep.Err) + valueSize(&rep.Ret)
	for i := range rep.Outs {
		n += valueSize(&rep.Outs[i])
	}
	return n
}

// AppendReply appends the encoding of rep to b.
func AppendReply(b []byte, rep *Reply) []byte {
	b = appendReplyHead(b, rep)
	for i := range rep.Outs {
		b = appendValue(b, &rep.Outs[i])
	}
	return b
}

// appendReplyHead appends everything of rep's encoding up to its outputs.
func appendReplyHead(b []byte, rep *Reply) []byte {
	b = appendUint64(b, rep.Seq)
	b = append(b, byte(rep.Status))
	b = appendStamps(b, rep.Stamps)
	b = appendUint32(b, uint32(len(rep.Err)))
	b = append(b, rep.Err...)
	b = appendValue(b, &rep.Ret)
	return appendUint16(b, uint16(len(rep.Outs)))
}

// ReplySeq reads the sequence number that leads an encoded reply frame
// without decoding the rest, so a demultiplexer can pick the record to decode
// into. ok is false for a frame too short to carry one.
func ReplySeq(b []byte) (seq uint64, ok bool) {
	if len(b) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

// DecodeReply decodes a frame body produced by EncodeReply into a fresh
// Reply.
func DecodeReply(b []byte) (*Reply, error) {
	rep := &Reply{}
	if err := DecodeReplyInto(rep, b); err != nil {
		return nil, err
	}
	return rep, nil
}

// DecodeReplyInto is DecodeCallInto for replies: it decodes into the
// caller-owned record rep, overwriting every field and reusing the backing
// array of rep.Outs. Outs is nil for a reply without outputs; on error rep
// holds unspecified contents.
func DecodeReplyInto(rep *Reply, b []byte) error {
	r := Reader{b: b}
	outs := rep.Outs
	*rep = Reply{}
	var err error
	if rep.Seq, err = r.U64(); err != nil {
		return err
	}
	st, err := r.U8()
	if err != nil {
		return err
	}
	rep.Status = Status(st)
	if rep.Stamps, err = r.stamps(); err != nil {
		return err
	}
	en, err := r.U32()
	if err != nil {
		return err
	}
	eraw, err := r.Bytes(int(en))
	if err != nil {
		return err
	}
	rep.Err = string(eraw)
	if err = r.value(&rep.Ret); err != nil {
		return err
	}
	n, err := r.U16()
	if err != nil {
		return err
	}
	if rep.Outs, err = r.values(outs, int(n)); err != nil {
		return err
	}
	if r.off != len(b) {
		return fmt.Errorf("marshal: %d trailing bytes in reply frame", len(b)-r.off)
	}
	return nil
}

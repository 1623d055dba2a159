// Package transport provides the pluggable frame transports AvA forwards
// API calls over.
//
// The paper's design requirement is that the remoting transport be
// hypervisor-interposable (unlike plain RPC in prior API-remoting systems)
// and pluggable, so VMs can use local or disaggregated accelerators. Three
// transports are provided:
//
//   - InProc: a pair of frame-reference queues; the analogue of a hypercall path, used
//     when guest, router and server share a process (tests and benchmarks).
//   - Ring: a pair of fixed-size byte rings with doorbell semantics — the
//     analogue of the hypervisor-managed shared-memory FIFO queues that
//     VMware's SVGA device uses, which the paper cites as the model for
//     interposable transport.
//   - TCP: length-prefixed frames over a socket, supporting disaggregated
//     accelerators (the LegoOS-style configuration from §4.1).
//
// All transports carry opaque frames; marshal encodes/decodes calls and
// replies. Everything else a connection carries — VM hello and admission
// verdict, mirror replication, fleet registry requests — is a control frame
// in the one envelope of ctl.go, exchanged through RoundTrip (dialer) and
// RecvCtl/Answer/Ack (listener), each wait bounded by one constant.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"ava/internal/framebuf"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrSevered is returned when the link died abruptly — the peer vanished
// mid-stream (process death, connection reset, ring torn down under a
// parked frame) rather than shutting down at a frame boundary. The failover
// layer treats ErrSevered as an API-server failure signal, while ErrClosed
// stays an orderly teardown; conflating them would turn every crash into a
// silent end-of-stream.
var ErrSevered = errors.New("transport: peer severed mid-stream")

// Severer is implemented by endpoints that can cut the link abruptly,
// simulating peer death: in-flight and queued frames are lost and both
// sides observe ErrSevered instead of an orderly close. For TCP this is a
// hard reset (RST); for in-process transports it drops the queue on the
// floor.
type Severer interface {
	Sever() error
}

// Sever cuts ep abruptly if it supports severing, else falls back to an
// orderly Close. It is the SIGKILL of the transport layer.
func Sever(ep Endpoint) error {
	if s, ok := ep.(Severer); ok {
		return s.Sever()
	}
	return ep.Close()
}

// MaxFrame bounds a single frame (a call with its largest buffer argument).
const MaxFrame = 64 << 20

// Endpoint is one side of a bidirectional, ordered, reliable frame pipe.
// Send and Recv are each safe for one concurrent caller; different
// goroutines may send and receive simultaneously.
type Endpoint interface {
	// Send transmits one frame.
	Send(frame []byte) error
	// Recv blocks for the next frame.
	Recv() ([]byte, error)
	// Close releases the endpoint; blocked and future calls fail with
	// ErrClosed (or io.EOF mapped to ErrClosed for remote closure).
	Close() error
}

// VectoredSender is an optional Endpoint refinement for scatter-gather
// sends. SendVec transmits the concatenation of parts as one frame —
// byte-for-byte what Send(concat(parts)) would put on the wire — without
// the caller having to materialize the concatenation. total must equal the
// summed length of parts; it sizes the frame's length prefix. The borrowed
// part slices are released when SendVec returns (the write is synchronous),
// so a caller may reuse or recycle them immediately afterwards.
type VectoredSender interface {
	SendVec(parts [][]byte, total int) error
}

// FrameOwnership is an optional Endpoint refinement describing who owns a
// frame's backing buffer across Send and Recv. The frame-pooling layers
// (guest library, API server) consult it before recycling buffers through
// internal/framebuf. Endpoints that do not implement it get conservative
// defaults — sent frames are retained by the endpoint, received frames may
// be shared — under which no buffer is ever recycled.
type FrameOwnership interface {
	// SendCopies reports whether Send copies the frame out before
	// returning, leaving the buffer free for the caller to reuse.
	SendCopies() bool
	// RecvOwned reports whether frames returned by Recv are exclusively
	// owned by the caller, safe to recycle once fully consumed.
	RecvOwned() bool
}

// SendCopies reports whether ep's Send leaves the sent buffer reusable.
func SendCopies(ep Endpoint) bool {
	fo, ok := ep.(FrameOwnership)
	return ok && fo.SendCopies()
}

// RecvOwned reports whether frames from ep's Recv belong exclusively to
// the receiver.
func RecvOwned(ep Endpoint) bool {
	fo, ok := ep.(FrameOwnership)
	return ok && fo.RecvOwned()
}

// inprocDepth bounds the frames queued in one direction of an in-process
// pair; a full queue blocks Send, back-pressuring the sender.
const inprocDepth = 64

// inprocQueue is one direction of an in-process pair: a bounded FIFO of
// frame references under one mutex. Send and Recv each take that lock once
// and park on a condition variable only when the queue is full or empty.
type inprocQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond // sender -> receiver
	notFull  sync.Cond // receiver -> sender
	frames   [inprocDepth][]byte
	head, n  int
	txClosed bool // the sending end closed: the receiver drains, then ErrClosed
	rxClosed bool // the receiving end closed: queued frames are abandoned
	severed  bool
}

func newInprocQueue() *inprocQueue {
	q := &inprocQueue{}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

func (q *inprocQueue) put(frame []byte) error {
	q.mu.Lock()
	for q.n == inprocDepth && !q.severed && !q.txClosed && !q.rxClosed {
		q.notFull.Wait()
	}
	switch {
	case q.severed:
		q.mu.Unlock()
		return ErrSevered
	case q.txClosed || q.rxClosed:
		q.mu.Unlock()
		return ErrClosed
	}
	q.frames[(q.head+q.n)%inprocDepth] = frame
	q.n++
	q.mu.Unlock()
	q.notEmpty.Signal()
	return nil
}

func (q *inprocQueue) get() ([]byte, error) {
	q.mu.Lock()
	for q.n == 0 && !q.severed && !q.txClosed && !q.rxClosed {
		q.notEmpty.Wait()
	}
	switch {
	case q.severed:
		// A severed pipe reports immediately: queued frames are lost,
		// exactly as they would be in a dead peer's memory.
		q.mu.Unlock()
		return nil, ErrSevered
	case q.rxClosed || q.n == 0:
		// Our own Close, or the peer closed and everything it queued
		// before closing has been delivered.
		q.mu.Unlock()
		return nil, ErrClosed
	}
	frame := q.frames[q.head]
	q.frames[q.head] = nil
	q.head = (q.head + 1) % inprocDepth
	q.n--
	q.mu.Unlock()
	q.notFull.Signal()
	return frame, nil
}

// shut marks the queue closed from its sending (tx) or receiving end, or
// severed, and wakes every parked Send and Recv.
func (q *inprocQueue) shut(tx, rx, sever bool) {
	q.mu.Lock()
	q.txClosed = q.txClosed || tx
	q.rxClosed = q.rxClosed || rx
	if sever {
		q.severed = true
		q.frames = [inprocDepth][]byte{} // queued frames die with the link
		q.n = 0
	}
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// inprocEnd is one end of an in-process pair.
type inprocEnd struct {
	tx, rx *inprocQueue
}

// NewInProc returns two connected in-process endpoints.
func NewInProc() (Endpoint, Endpoint) {
	ab, ba := newInprocQueue(), newInprocQueue()
	return &inprocEnd{tx: ab, rx: ba}, &inprocEnd{tx: ba, rx: ab}
}

// Send is zero-copy: ownership of frame transfers to the receiver (the
// hypercall-page model). Senders must not modify a frame after Send; every
// stack component already encodes into a fresh buffer per frame.
func (e *inprocEnd) Send(frame []byte) error { return e.tx.put(frame) }

func (e *inprocEnd) Recv() ([]byte, error) { return e.rx.get() }

// Close is the orderly teardown: this end's Send and Recv fail with
// ErrClosed from now on, the peer's Send fails with ErrClosed, and the
// peer's Recv first drains what this end queued before closing.
func (e *inprocEnd) Close() error {
	e.tx.shut(true, false, false)
	e.rx.shut(false, true, false)
	return nil
}

// Sever implements Severer: both ends observe ErrSevered and queued frames
// are abandoned.
func (e *inprocEnd) Sever() error {
	e.tx.shut(false, false, true)
	e.rx.shut(false, false, true)
	return nil
}

// SendCopies implements FrameOwnership: Send transfers ownership of the
// frame to the receiver (the hypercall-page model), so the sender must
// not reuse it.
func (e *inprocEnd) SendCopies() bool { return false }

// RecvOwned implements FrameOwnership: a received frame was handed over
// whole by the peer and belongs to the receiver.
func (e *inprocEnd) RecvOwned() bool { return true }

// ring is a fixed-capacity byte FIFO with blocking semantics, the shared
// memory region of a queue pair. Frames are stored as a 4-byte length
// followed by the payload, exactly as they would be in guest-visible
// shared memory.
type ring struct {
	mu      sync.Mutex
	notFull *sync.Cond // doorbell: consumer -> producer
	notEmpt *sync.Cond // doorbell: producer -> consumer
	buf     []byte
	head    int // read position
	tail    int // write position
	used    int
	closed  bool
	severed bool
}

func newRing(capacity int) *ring {
	r := &ring{buf: make([]byte, capacity)}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpt = sync.NewCond(&r.mu)
	return r
}

func (r *ring) put(frame []byte) error {
	need := 4 + len(frame)
	if need > len(r.buf) {
		return fmt.Errorf("transport: frame of %d bytes exceeds ring capacity %d", len(frame), len(r.buf))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.buf)-r.used < need && !r.closed {
		r.notFull.Wait()
	}
	if r.severed {
		return ErrSevered
	}
	if r.closed {
		return ErrClosed
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	r.write(hdr[:])
	r.write(frame)
	// Broadcast, not Signal: under pipelined use several waiters can be
	// parked here at once (a consumer racing close, or future multi-
	// consumer endpoints), and a Signal consumed by a waiter that then
	// observes `closed` would strand the rest.
	r.notEmpt.Broadcast()
	return nil
}

func (r *ring) write(b []byte) {
	n := copy(r.buf[r.tail:], b)
	if n < len(b) {
		copy(r.buf, b[n:])
	}
	r.tail = (r.tail + len(b)) % len(r.buf)
	r.used += len(b)
}

func (r *ring) get() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.used < 4 && !r.closed {
		r.notEmpt.Wait()
	}
	// A severed ring loses whatever sat in shared memory — even complete
	// queued frames are gone, the same way a dead peer's pages are.
	if r.severed {
		return nil, ErrSevered
	}
	if r.used < 4 && r.closed {
		return nil, ErrClosed
	}
	var hdr [4]byte
	r.read(hdr[:])
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	// Pooled scratch: the frame leaves the ring into a recycled buffer
	// instead of a fresh allocation per frame; the consumer owns it.
	frame := framebuf.GetLen(n)
	// The producer writes header+payload under one lock hold, so if the
	// header is here the payload is too.
	r.read(frame)
	r.notFull.Broadcast()
	return frame, nil
}

func (r *ring) read(b []byte) {
	n := copy(b, r.buf[r.head:min(r.head+len(b), len(r.buf))])
	if n < len(b) {
		copy(b[n:], r.buf)
	}
	r.head = (r.head + len(b)) % len(r.buf)
	r.used -= len(b)
}

func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notFull.Broadcast()
	r.notEmpt.Broadcast()
}

func (r *ring) sever() {
	r.mu.Lock()
	r.closed = true
	r.severed = true
	r.used = 0 // queued frames are lost with the peer
	r.mu.Unlock()
	r.notFull.Broadcast()
	r.notEmpt.Broadcast()
}

// ringEnd is one side of a ring queue pair.
type ringEnd struct {
	tx, rx *ring
}

// NewRing returns two endpoints connected by a pair of byte rings of the
// given capacity each (the simulated shared-memory FIFO queues).
func NewRing(capacity int) (Endpoint, Endpoint) {
	if capacity < 64 {
		capacity = 64
	}
	ab := newRing(capacity)
	ba := newRing(capacity)
	return &ringEnd{tx: ab, rx: ba}, &ringEnd{tx: ba, rx: ab}
}

func (e *ringEnd) Send(frame []byte) error { return e.tx.put(frame) }
func (e *ringEnd) Recv() ([]byte, error)   { return e.rx.get() }

// SendCopies implements FrameOwnership: put copies the frame into the
// shared ring, so the sender keeps its buffer.
func (e *ringEnd) SendCopies() bool { return true }

// RecvOwned implements FrameOwnership: get copies each frame out of the
// ring into a buffer owned by the caller.
func (e *ringEnd) RecvOwned() bool { return true }
func (e *ringEnd) Close() error {
	e.tx.close()
	e.rx.close()
	return nil
}

// Sever implements Severer: both rings of the pair are torn down abruptly
// and queued frames are lost, so the peer observes ErrSevered rather than
// an orderly close.
func (e *ringEnd) Sever() error {
	e.tx.sever()
	e.rx.sever()
	return nil
}

// connEnd adapts a net.Conn to Endpoint with 4-byte length prefixes. The
// length headers and the iovec of a send live in the endpoint, under the
// lock that already serializes that direction: as locals they escape through
// the net.Conn interface and cost three allocations a frame.
type connEnd struct {
	conn    net.Conn
	severed atomic.Bool

	sendMu  sync.Mutex
	sendHdr [4]byte
	sendIov [][]byte    // backing of sendVec, grown to the longest SendVec seen
	sendVec net.Buffers // the writev in flight; WriteTo consumes it

	recvMu  sync.Mutex
	recvHdr [4]byte
}

// NewConn wraps an established connection as an Endpoint.
func NewConn(c net.Conn) Endpoint { return &connEnd{conn: c} }

func (e *connEnd) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	e.sendIov = append(e.sendIov[:0], e.sendHdr[:], frame)
	return e.writev(len(frame))
}

// SendVec implements VectoredSender: one writev covers the length prefix,
// the frame pieces, and the borrowed payload segments, so large buffer
// arguments flow from the caller's memory straight into the socket without
// ever being copied into a frame. The receiver sees an ordinary
// length-prefixed frame, identical to a copying Send.
func (e *connEnd) SendVec(parts [][]byte, total int) error {
	if total > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	e.sendIov = append(e.sendIov[:0], e.sendHdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			e.sendIov = append(e.sendIov, p)
		}
	}
	return e.writev(total)
}

// writev sends sendIov — the length prefix, then the frame's pieces — with
// one writev: a single syscall per frame, and no header-only segment for
// Nagle/delayed-ACK to trip over. The iovec is cleared afterwards — the
// pieces are borrowed, and an idle endpoint must pin no payload. Called with
// sendMu held.
func (e *connEnd) writev(total int) error {
	binary.LittleEndian.PutUint32(e.sendHdr[:], uint32(total))
	e.sendVec = e.sendIov
	_, err := e.sendVec.WriteTo(e.conn)
	clear(e.sendIov)
	e.sendVec = nil
	if err != nil {
		return e.mapErr(err)
	}
	return nil
}

func (e *connEnd) Recv() ([]byte, error) {
	e.recvMu.Lock()
	defer e.recvMu.Unlock()
	hdr := e.recvHdr[:]
	if n, err := io.ReadFull(e.conn, hdr); err != nil {
		// EOF cleanly between frames is an orderly close; EOF with a
		// partial header means the peer died mid-frame.
		if n > 0 && errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, e.mapErr(io.ErrUnexpectedEOF)
		}
		return nil, e.mapErr(err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: peer announced %d-byte frame", n)
	}
	frame := framebuf.GetLen(int(n))
	if _, err := io.ReadFull(e.conn, frame); err != nil {
		// The length prefix promised a payload: any EOF here — even a
		// "clean" one at a segment boundary — is a mid-frame death.
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, e.mapErr(err)
	}
	return frame, nil
}

// mapErr maps a net error, preferring ErrSevered when this end was
// explicitly severed (the raw error is then an uninformative
// "use of closed network connection").
func (e *connEnd) mapErr(err error) error {
	if e.severed.Load() {
		return ErrSevered
	}
	return mapNetErr(err)
}

// Sever implements Severer: the connection is reset (SO_LINGER 0 → RST on
// TCP) so the peer observes ECONNRESET, not an orderly FIN. This is the
// closest a live process gets to simulating a SIGKILL'd server.
func (e *connEnd) Sever() error {
	e.severed.Store(true)
	if tc, ok := e.conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	return e.conn.Close()
}

// SendCopies implements FrameOwnership: the kernel copies the frame into
// the socket buffer during Send.
func (e *connEnd) SendCopies() bool { return true }

// RecvOwned implements FrameOwnership: Recv reads each frame into a
// buffer owned by the caller.
func (e *connEnd) RecvOwned() bool { return true }

func (e *connEnd) Close() error { return e.conn.Close() }

func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	// Abrupt peer death: a reset connection or a stream cut mid-frame.
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return ErrSevered
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return err
}

// Listener accepts TCP endpoint connections.
type Listener struct {
	l net.Listener
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept blocks for the next incoming endpoint.
func (l *Listener) Accept() (Endpoint, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, mapNetErr(err)
	}
	return NewConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a Listener, giving up after the control time bound.
func Dial(addr string) (Endpoint, error) {
	c, err := net.DialTimeout("tcp", addr, ctlTimeout)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

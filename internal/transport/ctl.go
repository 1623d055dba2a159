package transport

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"ava/internal/averr"
	"ava/internal/marshal"
)

// Everything that is not a call or a reply crosses a connection as a control
// frame in one envelope (DESIGN.md, "Wire formats", has the op table):
//
//	'A' 'V' 'A' 'C' [ver u8] [op u8] [vm u32 LE] [seq u64 LE] [payload]
//
// There is no length field: the transport frame carries the length. A
// request is answered by exactly one frame echoing its vm and seq: the op's
// reply, or an OpAck refusing it. What a payload means belongs to the
// package that sends it; the envelope and the op table live here so both
// ends agree on them without importing each other.

// Op names a control frame's meaning; the constants are the one op table.
type Op byte

const (
	// OpHello opens a VM session on an API server (seq = the dialer's
	// endpoint epoch, payload = VM name); the OpAck that answers it is the
	// admission verdict. OpAck's payload is [ok u8][reason].
	OpHello Op = 1 + iota
	OpAck
	// OpMirrorHello opens a replication session for vm on a mirror host
	// (payload = VM name; OpAck). On it, OpMirrorBatch carries shadow-log
	// mutations (seq = the sender's opseq, payload = marshal.EncodeBatch of
	// sub-ops; OpAck, ok=0 meaning "resync") and OpMirrorState asks for the
	// state OpMirrorStateResp returns (payload = failover.EncodeMirrorState).
	OpMirrorHello
	OpMirrorBatch
	OpMirrorState
	OpMirrorStateResp
	// The fleet registry's requests (payload = a JSON body, vm = seq = 0):
	// announce, deregister and gossip are answered by OpAck, live by
	// OpFleetMembers (payload = JSON members).
	OpFleetAnnounce
	OpFleetDeregister
	OpFleetGossip
	OpFleetLive
	OpFleetMembers
	opEnd
)

var opNames = [opEnd]string{
	OpHello: "hello", OpAck: "ack",
	OpMirrorHello: "mirror-hello", OpMirrorBatch: "mirror-batch",
	OpMirrorState: "mirror-state", OpMirrorStateResp: "mirror-state-resp",
	OpFleetAnnounce: "fleet-announce", OpFleetDeregister: "fleet-deregister",
	OpFleetGossip: "fleet-gossip", OpFleetLive: "fleet-live", OpFleetMembers: "fleet-members",
}

func (o Op) String() string {
	if o < opEnd {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Ctl is one control frame.
type Ctl struct {
	Op      Op
	VM      uint32
	Seq     uint64
	Payload []byte // aliases the received frame
}

const (
	ctlMagic   = "AVAC"
	ctlVersion = 1
	// ctlTimeout bounds every wait for a control frame and every TCP dial,
	// ≈ 350× the slowest exchange seen in `make chaos` + E16 (measurement in
	// DESIGN.md). A constant on purpose: a peer that slow is dead.
	ctlTimeout = 5 * time.Second
)

// EncodeCtl serializes a control frame.
func EncodeCtl(c Ctl) []byte {
	b := make([]byte, 0, 18+len(c.Payload))
	b = append(append(b, ctlMagic...), ctlVersion, byte(c.Op))
	b = binary.LittleEndian.AppendUint32(b, c.VM)
	b = binary.LittleEndian.AppendUint64(b, c.Seq)
	return append(b, c.Payload...)
}

// DecodeCtl parses a control frame, refusing bad magic, an unknown version,
// a short header and an op outside the table with averr.ErrProtocol. The
// payload aliases frame.
func DecodeCtl(frame []byte) (Ctl, error) {
	r := marshal.NewReader(frame)
	magic, _ := r.Bytes(4)
	ver, _ := r.U8()
	op, _ := r.U8()
	vm, _ := r.U32()
	seq, err := r.U64() // the widest read: it fails if any before it did
	what := ""
	switch {
	case string(magic) != ctlMagic:
		what = "bad magic"
	case err != nil:
		what = "short header"
	case ver != ctlVersion:
		what = fmt.Sprintf("version %d", ver)
	case op == 0 || Op(op) >= opEnd:
		what = fmt.Sprintf("unknown op %d", op)
	default:
		return Ctl{Op: Op(op), VM: vm, Seq: seq, Payload: r.Rest()}, nil
	}
	return Ctl{}, fmt.Errorf("transport: %d-byte control frame: %s: %w", len(frame), what, averr.ErrProtocol)
}

// ErrRefused reports a request the peer answered with an ok=0 ack; the
// wrapping error carries the peer's reason.
var ErrRefused = averr.New(averr.CatDenied, "ctl-refused", "transport: refused by peer")

// Ack answers req on ep with the verdict: accepted when refusal is nil, else
// refused with refusal's text as the reason.
func Ack(ep Endpoint, req Ctl, refusal error) error {
	payload := []byte{1}
	if refusal != nil {
		payload = append([]byte{0}, refusal.Error()...)
	}
	return Answer(ep, req, OpAck, payload)
}

// Answer sends req's reply on ep: op and payload under req's vm and seq.
func Answer(ep Endpoint, req Ctl, op Op, payload []byte) error {
	return ep.Send(EncodeCtl(Ctl{Op: op, VM: req.VM, Seq: req.Seq, Payload: payload}))
}

// RecvCtl is the one time-bounded wait for a control frame — the first
// frame of an accepted connection, and the reply half of RoundTrip. A peer
// silent for ctlTimeout gets ep severed, and the wait fails with
// averr.ErrDeadlineExceeded.
func RecvCtl(ep Endpoint) (Ctl, error) {
	var expired atomic.Bool
	t := time.AfterFunc(ctlTimeout, func() {
		expired.Store(true)
		Sever(ep)
	})
	c, err := nextCtl(ep)
	t.Stop()
	if expired.Load() {
		return Ctl{}, fmt.Errorf("transport: no control frame within %v: %w", ctlTimeout, averr.ErrDeadlineExceeded)
	}
	return c, err
}

func nextCtl(ep Endpoint) (Ctl, error) {
	frame, err := ep.Recv()
	if err != nil {
		return Ctl{}, err
	}
	return DecodeCtl(frame)
}

// ServeCtl is the listener's side of a control session: it hands each
// request on ep to handle until one fails, the stream ends or a frame is
// not a control frame, then closes ep. The first frame must arrive within
// the time bound; an established session may idle.
func ServeCtl(ep Endpoint, handle func(Ctl) error) {
	defer ep.Close()
	req, err := RecvCtl(ep)
	for err == nil {
		if err = handle(req); err == nil {
			req, err = nextCtl(ep)
		}
	}
}

// RoundTrip is the one control exchange: send req, wait (bounded) for the
// frame that echoes its vm and seq, and return it if its op is want. An
// ok=0 ack comes back as an error wrapping ErrRefused with the peer's
// reason; any other frame is averr.ErrProtocol, after which (as after a
// transport error) the stream's position is unknown and the caller closes ep.
func RoundTrip(ep Endpoint, req Ctl, want Op) (Ctl, error) {
	if err := ep.Send(EncodeCtl(req)); err != nil {
		return Ctl{}, fmt.Errorf("%v: %w", req.Op, err)
	}
	rep, err := RecvCtl(ep)
	if err != nil {
		return Ctl{}, fmt.Errorf("%v: %w", req.Op, err)
	}
	if rep.VM != req.VM || rep.Seq != req.Seq {
		return Ctl{}, fmt.Errorf("%v vm %d seq %d answered by %v vm %d seq %d: %w",
			req.Op, req.VM, req.Seq, rep.Op, rep.VM, rep.Seq, averr.ErrProtocol)
	}
	if rep.Op == OpAck {
		r := marshal.NewReader(rep.Payload)
		if ok, err := r.U8(); err != nil {
			return Ctl{}, fmt.Errorf("%v: empty ack: %w", req.Op, averr.ErrProtocol)
		} else if ok != 1 {
			return Ctl{}, fmt.Errorf("%v vm %d: %w: %s", req.Op, req.VM, ErrRefused, r.Rest())
		}
	}
	if rep.Op != want {
		return Ctl{}, fmt.Errorf("%v answered by %v, want %v: %w", req.Op, rep.Op, want, averr.ErrProtocol)
	}
	return rep, nil
}

package transport

import (
	"encoding/binary"
	"fmt"
)

// Hello is the connection preamble a dialer sends as the first frame to a
// remote API server (avad): which VM the connection serves, the endpoint
// epoch it is dialing under (so a reconnect after failover is observable
// host-side), and a display name.
//
// The legacy preamble was just [vm u32 LE][name bytes]; the extended form
// inserts a magic tag so the two stay distinguishable on the wire:
//
//	[vm u32 LE] 'A' 'V' 'A' '1' [epoch u32 LE] [name bytes]
//
// A dialer that needs the server's verdict before treating the link as up
// (a fleet dialer, which must distinguish "connected" from "admitted" —
// an evicted VM's reconnect is refused host-side) sends the same layout
// under the 'AVA2' magic, which obliges the server to answer with exactly
// one HelloAck frame (accept or reject) before any data-plane traffic.
// Servers never ack 'AVA1' or legacy preambles, so old dialers see no
// protocol change; an 'AVA2' dialer must only target ack-aware servers
// (every server in this tree is).
//
// DecodeHello accepts all three forms, reporting epoch 0 for legacy
// frames and WantAck only for 'AVA2'.
type Hello struct {
	VM    uint32
	Epoch uint32
	Name  string
	// WantAck asks the server to confirm or refuse this VM with a
	// HelloAck frame before serving; the dialer blocks on that verdict,
	// so a host-side rejection is a dial failure, not a silent sever.
	WantAck bool
}

var (
	helloMagic    = [4]byte{'A', 'V', 'A', '1'}
	helloAckMagic = [4]byte{'A', 'V', 'A', '2'}
	ackMagic      = [4]byte{'A', 'V', 'A', 'K'}
)

// EncodeHello serializes the extended preamble.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 12, 12+len(h.Name))
	binary.LittleEndian.PutUint32(b, h.VM)
	if h.WantAck {
		copy(b[4:], helloAckMagic[:])
	} else {
		copy(b[4:], helloMagic[:])
	}
	binary.LittleEndian.PutUint32(b[8:], h.Epoch)
	return append(b, h.Name...)
}

// DecodeHello parses a preamble frame, legacy or extended.
func DecodeHello(frame []byte) (Hello, error) {
	if len(frame) < 4 {
		return Hello{}, fmt.Errorf("transport: hello frame of %d bytes", len(frame))
	}
	h := Hello{VM: binary.LittleEndian.Uint32(frame)}
	rest := frame[4:]
	if len(rest) >= 8 {
		switch [4]byte(rest[:4]) {
		case helloMagic:
			h.Epoch = binary.LittleEndian.Uint32(rest[4:])
			rest = rest[8:]
		case helloAckMagic:
			h.Epoch = binary.LittleEndian.Uint32(rest[4:])
			h.WantAck = true
			rest = rest[8:]
		}
	}
	h.Name = string(rest)
	return h, nil
}

// HelloAck is the server's verdict on a WantAck hello: admitted (OK) or
// refused, with a human-readable reason on refusal. It travels as the
// first server-to-guest frame, before any reply:
//
//	'A' 'V' 'A' 'K' [ok u8] [reason bytes]
type HelloAck struct {
	OK     bool
	Reason string
}

// EncodeHelloAck serializes the verdict frame.
func EncodeHelloAck(a HelloAck) []byte {
	b := make([]byte, 5, 5+len(a.Reason))
	copy(b, ackMagic[:])
	if a.OK {
		b[4] = 1
	}
	return append(b, a.Reason...)
}

// DecodeHelloAck parses a verdict frame.
func DecodeHelloAck(frame []byte) (HelloAck, error) {
	if len(frame) < 5 || [4]byte(frame[:4]) != ackMagic {
		return HelloAck{}, fmt.Errorf("transport: not a hello ack frame (%d bytes)", len(frame))
	}
	return HelloAck{OK: frame[4] == 1, Reason: string(frame[5:])}, nil
}

// AckHello answers a decoded hello on ep: if the dialer asked for an ack,
// the verdict frame is sent (ok with an empty reason, or a refusal
// carrying reason); hellos that did not ask are left unanswered so legacy
// dialers see no unexpected frame. It returns any send error.
func AckHello(ep Endpoint, h Hello, ok bool, reason string) error {
	if !h.WantAck {
		return nil
	}
	if ok {
		reason = ""
	}
	return ep.Send(EncodeHelloAck(HelloAck{OK: ok, Reason: reason}))
}

// Greet is the dialer's half of the handshake AckHello answers: it sends h
// as ep's first frame and, if h asks for an ack, blocks on the server's
// verdict. A refusal comes back as an error carrying the server's reason.
func Greet(ep Endpoint, h Hello) error {
	if err := ep.Send(EncodeHello(h)); err != nil || !h.WantAck {
		return err
	}
	frame, err := ep.Recv()
	if err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	ack, err := DecodeHelloAck(frame)
	if err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("VM %d refused: %s", h.VM, ack.Reason)
	}
	return nil
}

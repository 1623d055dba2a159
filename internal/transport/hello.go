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
//	[vm u32 LE] 'A' 'V' 'A' '2' [epoch u32 LE] [name bytes]
//
// The server answers every hello with exactly one HelloAck frame (accept
// or reject) before any data-plane traffic, and the dialer waits for it:
// "connected" is not "admitted" — an evicted VM's reconnect is refused
// host-side, and that has to be a dial failure. A frame without the magic
// is not a hello; the server drops the connection without binding a VM.
type Hello struct {
	VM    uint32
	Epoch uint32
	Name  string
}

var (
	helloMagic = [4]byte{'A', 'V', 'A', '2'}
	ackMagic   = [4]byte{'A', 'V', 'A', 'K'}
)

// EncodeHello serializes the preamble.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 12, 12+len(h.Name))
	binary.LittleEndian.PutUint32(b, h.VM)
	copy(b[4:], helloMagic[:])
	binary.LittleEndian.PutUint32(b[8:], h.Epoch)
	return append(b, h.Name...)
}

// DecodeHello parses a preamble frame.
func DecodeHello(frame []byte) (Hello, error) {
	if len(frame) < 12 || [4]byte(frame[4:8]) != helloMagic {
		return Hello{}, fmt.Errorf("transport: not a hello frame (%d bytes)", len(frame))
	}
	return Hello{
		VM:    binary.LittleEndian.Uint32(frame),
		Epoch: binary.LittleEndian.Uint32(frame[8:]),
		Name:  string(frame[12:]),
	}, nil
}

// HelloAck is the server's verdict on a hello: admitted (OK) or
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

// AckHello answers a hello on ep with the verdict frame: ok, or a refusal
// carrying reason. It returns any send error.
func AckHello(ep Endpoint, ok bool, reason string) error {
	if ok {
		reason = ""
	}
	return ep.Send(EncodeHelloAck(HelloAck{OK: ok, Reason: reason}))
}

// Greet is the dialer's half of the handshake AckHello answers: it sends h
// as ep's first frame and blocks on the server's verdict. A refusal comes
// back as an error carrying the server's reason.
func Greet(ep Endpoint, h Hello) error {
	if err := ep.Send(EncodeHello(h)); err != nil {
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

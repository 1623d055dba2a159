package transport

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{VM: 7, Epoch: 3, Name: "vm-7"}
	out, err := DecodeHello(EncodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// A frame without the magic is not a hello, however long it is: the old
// [vm][name] preamble, the unacknowledged AVA1 form and plain garbage used
// to decode into a VM id and a name, and the host then dropped that VM's
// live context to bind the "new incarnation".
func TestHelloRefusesFramesWithoutMagic(t *testing.T) {
	legacy := binary.LittleEndian.AppendUint32(nil, 9)
	ava1 := append(append([]byte(nil), legacy...), "AVA1\x03\x00\x00\x00old-vm"...)
	for _, frame := range [][]byte{
		append(legacy, "old-vm"...),
		ava1,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		EncodeHello(Hello{VM: 9, Epoch: 1})[:11], // magic, no room for the epoch
	} {
		if h, err := DecodeHello(frame); err == nil {
			t.Fatalf("%q decoded as %+v", frame, h)
		}
	}
}

func TestHelloEmptyNameAndShortFrame(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{VM: 1, Epoch: 2}))
	if err != nil || h.Name != "" || h.Epoch != 2 {
		t.Fatalf("empty name: %+v, %v", h, err)
	}
	if _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, in := range []HelloAck{
		{OK: true},
		{OK: false, Reason: "vm 7 evicted 12ms ago, rebalancing"},
	} {
		out, err := DecodeHelloAck(EncodeHelloAck(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("round trip: got %+v want %+v", out, in)
		}
	}
	if _, err := DecodeHelloAck([]byte("AVA")); err == nil {
		t.Fatal("short ack frame accepted")
	}
	if _, err := DecodeHelloAck(EncodeHello(Hello{VM: 1})); err == nil {
		t.Fatal("hello frame accepted as an ack")
	}
}

// Greet and AckHello are the two halves of one handshake: every hello is
// answered, and a refusal reaches the dialer as an error with the reason.
func TestAckHelloAlwaysAnswers(t *testing.T) {
	client, sv := NewInProc()
	defer client.Close()
	for _, tc := range []struct {
		ok     bool
		reason string
	}{{true, ""}, {false, "full"}} {
		greeted := make(chan error, 1)
		go func() { greeted <- Greet(client, Hello{VM: 1, Name: "vm-1"}) }()
		frame, err := sv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if h, err := DecodeHello(frame); err != nil || h.VM != 1 {
			t.Fatalf("hello = %+v, %v", h, err)
		}
		if err := AckHello(sv, tc.ok, tc.reason); err != nil {
			t.Fatal(err)
		}
		err = <-greeted
		if tc.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.reason)) {
			t.Fatalf("verdict ok=%v reason %q: Greet = %v", tc.ok, tc.reason, err)
		}
	}
}

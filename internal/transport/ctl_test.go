package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"ava/internal/averr"
	"ava/internal/leaktest"
)

func hello(vm, epoch uint32, name string) Ctl {
	return Ctl{Op: OpHello, VM: vm, Seq: uint64(epoch), Payload: []byte(name)}
}

func sameCtl(a, b Ctl) bool {
	return a.Op == b.Op && a.VM == b.VM && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
}

func TestHelloRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	in := hello(7, 3, "vm-7")
	out, err := DecodeCtl(EncodeCtl(in))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCtl(in, out) {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// A frame without the envelope's magic is not a control frame, however long
// it is: the old [vm][name] preamble, the AVA1 and AVA2 hellos, an AVAK
// verdict, an AVAM mirror frame, a fleet JSON request and plain garbage are
// all refused — a hello that "decoded" out of one of those used to make the
// host drop that VM's live context to bind the "new incarnation".
func TestHelloRefusesFramesWithoutMagic(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	legacy := binary.LittleEndian.AppendUint32(nil, 9)
	for _, frame := range [][]byte{
		append(legacy[:4:4], "old-vm"...),
		append(legacy[:4:4], "AVA1\x03\x00\x00\x00old-vm"...),
		append(legacy[:4:4], "AVA2\x03\x00\x00\x00old-vm"...),
		[]byte("AVAK\x01"),
		[]byte("AVAM\x01\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00old-vm"),
		[]byte(`{"op":"live","api":"opencl"}`),
		[]byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		if c, err := DecodeCtl(frame); !errors.Is(err, averr.ErrProtocol) {
			t.Fatalf("%q decoded as %+v, %v", frame, c, err)
		}
	}
}

func TestHelloEmptyNameAndShortFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	full := EncodeCtl(hello(1, 2, ""))
	c, err := DecodeCtl(full)
	if err != nil || len(c.Payload) != 0 || c.Seq != 2 {
		t.Fatalf("empty name: %+v, %v", c, err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeCtl(full[:n]); !errors.Is(err, averr.ErrProtocol) {
			t.Fatalf("%d-byte prefix of a hello: %v, want ErrProtocol", n, err)
		}
	}
}

// DecodeCtl is the one place a control frame is refused: magic, version,
// header length and the op table, each with averr.ErrProtocol.
func TestDecodeCtlRefusals(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	good := EncodeCtl(Ctl{Op: OpFleetMembers, VM: 1, Seq: 2, Payload: []byte("[]")})
	if _, err := DecodeCtl(good); err != nil {
		t.Fatalf("last op of the table refused: %v", err)
	}
	patch := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] = v
		return b
	}
	for name, frame := range map[string][]byte{
		"magic":     patch(3, 'M'),
		"version-0": patch(4, 0),
		"version-2": patch(4, 2),
		"op-0":      patch(5, 0),
		"op-end":    patch(5, byte(opEnd)),
		"op-255":    patch(5, 255),
		"short":     good[:17],
		"empty":     nil,
	} {
		if c, err := DecodeCtl(frame); !errors.Is(err, averr.ErrProtocol) {
			t.Fatalf("%s: decoded as %+v, %v", name, c, err)
		}
	}
}

// answer queues frame as the peer's answer on an in-proc pair and runs the
// exchange: the pair buffers, so no goroutine is needed.
func answer(req Ctl, want Op, frame []byte) (Ctl, error) {
	a, b := NewInProc()
	defer a.Close()
	defer b.Close()
	b.Send(frame)
	return RoundTrip(a, req, want)
}

func TestHelloAckRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	req := hello(7, 3, "vm-7")
	ack := func(refusal error) []byte {
		a, b := NewInProc()
		defer a.Close()
		defer b.Close()
		if err := Ack(a, req, refusal); err != nil {
			t.Fatal(err)
		}
		frame, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	if rep, err := answer(req, OpAck, ack(nil)); err != nil || rep.Op != OpAck {
		t.Fatalf("accept: %+v, %v", rep, err)
	}
	reason := "vm 7 evicted 12ms ago, rebalancing"
	_, err := answer(req, OpAck, ack(errors.New(reason)))
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), reason) || averr.CategoryOf(err) != averr.CatDenied {
		t.Fatalf("refusal: %v", err)
	}
	// A refusal answers any request, whatever reply op it wanted.
	if _, err := answer(req, OpMirrorStateResp, ack(errors.New(reason))); !errors.Is(err, ErrRefused) {
		t.Fatalf("refusal of a non-ack request: %v", err)
	}
}

// RoundTrip accepts exactly the frame that answers its request: right op,
// and the request's vm and seq echoed.
func TestRoundTripVerifiesTheEcho(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	req := Ctl{Op: OpMirrorState, VM: 4, Seq: 11}
	for name, rep := range map[string][]byte{
		"wrong-seq":   EncodeCtl(Ctl{Op: OpMirrorStateResp, VM: 4, Seq: 12}),
		"wrong-vm":    EncodeCtl(Ctl{Op: OpMirrorStateResp, VM: 5, Seq: 11}),
		"wrong-op":    EncodeCtl(Ctl{Op: OpFleetMembers, VM: 4, Seq: 11}),
		"ok-ack":      EncodeCtl(Ctl{Op: OpAck, VM: 4, Seq: 11, Payload: []byte{1}}),
		"empty-ack":   EncodeCtl(Ctl{Op: OpAck, VM: 4, Seq: 11}),
		"retired-ack": []byte("AVAK\x01"),
		"retired-avam": append([]byte("AVAM\x05\x04\x00\x00\x00"),
			binary.LittleEndian.AppendUint64(nil, 11)...),
	} {
		if c, err := answer(req, OpMirrorStateResp, rep); !errors.Is(err, averr.ErrProtocol) {
			t.Fatalf("%s: accepted as %+v, %v", name, c, err)
		}
	}
	right := EncodeCtl(Ctl{Op: OpMirrorStateResp, VM: 4, Seq: 11, Payload: []byte("st")})
	if c, err := answer(req, OpMirrorStateResp, right); err != nil || string(c.Payload) != "st" {
		t.Fatalf("the right answer: %+v, %v", c, err)
	}
}

// A peer that never answers costs one time bound, not forever: the wait
// fails with a deadline error and the endpoint is severed, so nothing can
// keep blocking on it.
func TestRoundTripStalledPeerIsBounded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if testing.Short() {
		t.Skip("waits out the control time bound")
	}
	a, b := NewInProc()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	_, err := RoundTrip(a, hello(1, 0, "vm-1"), OpAck)
	if took := time.Since(start); !errors.Is(err, averr.ErrDeadlineExceeded) || took < ctlTimeout || took > ctlTimeout+2*time.Second {
		t.Fatalf("stalled peer: %v after %v, want a deadline error after %v", err, took, ctlTimeout)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrSevered) {
		t.Fatalf("peer's view after the bound: %v, want ErrSevered", err)
	}
}

// ServeCtl and RoundTrip are the two halves of every session: each request
// is answered, a refusal reaches the dialer as an error with the reason,
// and a frame that is not a control frame ends the session.
func TestAckHelloAlwaysAnswers(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	client, sv := NewInProc()
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeCtl(sv, func(req Ctl) error {
			if req.Op != OpHello || req.VM != 1 {
				t.Errorf("request = %+v", req)
			}
			if req.Seq == 0 {
				return Ack(sv, req, nil)
			}
			return Ack(sv, req, errors.New("full"))
		})
	}()
	if _, err := RoundTrip(client, hello(1, 0, "vm-1"), OpAck); err != nil {
		t.Fatalf("accepted hello: %v", err)
	}
	if _, err := RoundTrip(client, hello(1, 1, "vm-1"), OpAck); !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "full") {
		t.Fatalf("refused hello: %v", err)
	}
	client.Send([]byte("\x01\x00\x00\x00AVA2\x00\x00\x00\x00vm-1"))
	<-served
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after a non-control frame: %v, want the session closed", err)
	}
}

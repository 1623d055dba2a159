package transport

import (
	"bytes"
	"testing"
)

// A control frame is the first thing every listener reads off a fresh
// connection from the network, and the only thing a dialer reads before it
// trusts a link. The checked-in corpus (testdata/fuzz/FuzzDecodeCtl) holds
// every kind of op as its sender emits it, the refusals (version, op table,
// short header), and the retired formats — the AVA1/AVA2 hello, the AVAK
// verdict, an AVAM mirror frame, the [vm][name] preamble and a fleet JSON
// request — which must be refused. FuzzDecodeHello and FuzzDecodeHelloAck
// are the same property over the corpora of the two codecs this envelope
// replaced: none of their entries carries the magic, so each is a
// must-refuse seed.

// checkCtlFrame: no input panics; a frame is accepted exactly when it
// carries the magic, the version, a table op and a full header; an accepted
// frame re-encodes to the same bytes; and as the answer to an exchange it is
// accepted exactly when it is the accepting ack that echoes the request.
func checkCtlFrame(t *testing.T, frame []byte) {
	c, err := DecodeCtl(frame)
	wellFormed := len(frame) >= 18 && string(frame[:4]) == "AVAC" && frame[4] == 1 && frame[5] >= 1 && frame[5] < byte(opEnd)
	if wellFormed != (err == nil) {
		t.Fatalf("%d-byte frame %q: err %v", len(frame), frame, err)
	}
	if err == nil && !bytes.Equal(EncodeCtl(c), frame) {
		t.Fatalf("%q re-encodes to %q", frame, EncodeCtl(c))
	}
	req := Ctl{Op: OpHello, VM: 7, Seq: 3}
	_, err = answer(req, OpAck, frame)
	accepts := wellFormed && c.Op == OpAck && c.VM == req.VM && c.Seq == req.Seq && len(c.Payload) > 0 && c.Payload[0] == 1
	if accepts != (err == nil) {
		t.Fatalf("%q as the answer to %+v: err %v", frame, req, err)
	}
}

func FuzzDecodeCtl(f *testing.F)      { f.Fuzz(checkCtlFrame) }
func FuzzDecodeHello(f *testing.F)    { f.Fuzz(checkCtlFrame) }
func FuzzDecodeHelloAck(f *testing.F) { f.Fuzz(checkCtlFrame) }

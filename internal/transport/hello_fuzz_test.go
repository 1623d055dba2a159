package transport

import "testing"

// The hello is the first thing a host reads off a fresh connection from
// the network. The checked-in corpus (testdata/fuzz) covers the one form a
// dialer sends, a truncated frame, a magic with no room for its epoch, and
// the retired [vm][name] and AVA1 forms, which must now be refused.

// FuzzDecodeHello: no input panics, a frame is accepted exactly when it
// carries the magic and an epoch, and whatever decodes survives a trip
// through EncodeHello.
func FuzzDecodeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := DecodeHello(frame)
		if wellFormed := len(frame) >= 12 && string(frame[4:8]) == "AVA2"; wellFormed != (err == nil) {
			t.Fatalf("%d-byte frame %q: err %v", len(frame), frame, err)
		}
		if err != nil {
			return
		}
		again, err := DecodeHello(EncodeHello(h))
		if err != nil || again != h {
			t.Fatalf("round trip of %+v = %+v, %v", h, again, err)
		}
	})
}

// FuzzDecodeHelloAck: no input panics, and an accepted verdict survives a
// trip through EncodeHelloAck.
func FuzzDecodeHelloAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		a, err := DecodeHelloAck(frame)
		if err != nil {
			return
		}
		again, err := DecodeHelloAck(EncodeHelloAck(a))
		if err != nil || again != a {
			t.Fatalf("round trip of %+v = %+v, %v", a, again, err)
		}
	})
}

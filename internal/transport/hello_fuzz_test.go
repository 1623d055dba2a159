package transport

import "testing"

// The hello is the first thing a host reads off a fresh connection from
// the network. The checked-in corpus (testdata/fuzz) covers the legacy
// [vm][name] form, AVA1, AVA2, a truncated frame and a magic with no room
// for its epoch.

// FuzzDecodeHello: no input panics, only a frame too short for a VM id is
// refused, and whatever decodes survives a trip through EncodeHello.
func FuzzDecodeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := DecodeHello(frame)
		if err != nil {
			if len(frame) >= 4 {
				t.Fatalf("refused a %d-byte frame: %v", len(frame), err)
			}
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

package guest

import (
	"testing"

	"ava/internal/cava"
	"ava/internal/guest/guesttest"
	"ava/internal/marshal"
)

// BenchmarkLibCall measures the guest library's per-call path alone, against
// an echo endpoint, through the typed entry the generated stubs use (a
// descriptor resolved once, the argument vector on the caller's stack): an
// asynchronously forwarded (batched) call, and a synchronous round trip
// including the demultiplexer hand-off. The by-name rows are the same two
// calls through Call's lookup and `...any` conversion, for the difference.
func BenchmarkLibCall(b *testing.B) {
	desc := cava.MustCompile(testSpec)
	scale, _ := desc.Lookup("scale")
	closeDevice, _ := desc.Lookup("closeDevice")
	dev := marshal.Handle(1)
	var opts CallOptions
	for _, bc := range []struct {
		name string
		call func(lib *Lib) error
	}{
		{"async-batched", func(lib *Lib) error {
			args := [2]marshal.Value{marshal.HandleVal(dev), marshal.Float(2)}
			_, err := lib.Invoke(scale, &opts, args[:])
			return err
		}},
		{"sync", func(lib *Lib) error {
			args := [1]marshal.Value{marshal.HandleVal(dev)}
			_, err := lib.Invoke(closeDevice, &opts, args[:])
			return err
		}},
		{"by-name/async-batched", func(lib *Lib) error { _, err := lib.Call("scale", dev, 2.0); return err }},
		{"by-name/sync", func(lib *Lib) error { _, err := lib.Call("closeDevice", dev); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lib := New(desc, guesttest.NewEcho())
			defer lib.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.call(lib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

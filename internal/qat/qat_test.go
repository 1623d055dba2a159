package qat_test

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"strings"
	"testing"

	"ava"
	"ava/internal/qat"
	"ava/internal/server"
	"ava/internal/stacktest"
)

func clients(t *testing.T) map[string]qat.Client {
	t.Helper()
	out := map[string]qat.Client{}
	out["native"] = qat.NewNative(qat.NewSilo(2))

	desc := qat.Descriptor()
	reg := server.NewRegistry(desc)
	qat.BindServer(reg, qat.NewSilo(2))
	stack := ava.NewStack(desc, reg)
	t.Cleanup(stack.Close)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "qat-vm"})
	if err != nil {
		t.Fatal(err)
	}
	out["remote"] = qat.NewRemote(lib)
	return out
}

// compressible test data: repeated English-ish text.
func testData(n int) []byte {
	base := []byte("the quick brown accelerator jumps over the lazy hypervisor; ")
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, base...)
	}
	return out[:n]
}

func TestInstanceDiscovery(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			n, err := c.GetNumInstances()
			if err != nil || n != 2 {
				t.Fatalf("instances = %d, %v", n, err)
			}
			if _, err := c.StartInstance(9); err == nil {
				t.Fatal("bogus instance started")
			}
		})
	}
}

func TestInstanceExclusive(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, err := c.StartInstance(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.StartInstance(0); err == nil {
				t.Fatal("double start succeeded")
			}
			if err := c.StopInstance(in); err != nil {
				t.Fatal(err)
			}
			in2, err := c.StartInstance(0)
			if err != nil {
				t.Fatal(err)
			}
			c.StopInstance(in2)
		})
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, _ := c.StartInstance(0)
			defer c.StopInstance(in)
			comp, err := c.SessionInit(in, qat.DirCompress, 6)
			if err != nil {
				t.Fatal(err)
			}
			defer c.SessionTeardown(comp)
			deco, err := c.SessionInit(in, qat.DirDecompress, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.SessionTeardown(deco)

			src := testData(64 << 10)
			packed := make([]byte, len(src))
			n, err := c.Compress(comp, src, packed)
			if err != nil {
				t.Fatal(err)
			}
			if n <= 0 || int(n) >= len(src)/4 {
				t.Fatalf("compressed %d bytes to %d — implausible for repetitive text", len(src), n)
			}
			restored := make([]byte, len(src))
			m, err := c.Decompress(deco, packed[:n], restored)
			if err != nil {
				t.Fatal(err)
			}
			if int(m) != len(src) || !bytes.Equal(restored[:m], src) {
				t.Fatalf("round trip lost data: %d of %d bytes", m, len(src))
			}
		})
	}
}

func TestCompressBufferTooSmall(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, _ := c.StartInstance(0)
			defer c.StopInstance(in)
			sess, _ := c.SessionInit(in, qat.DirCompress, 6)
			// Incompressible random data into a tiny output buffer.
			src := make([]byte, 4096)
			rand.New(rand.NewSource(1)).Read(src)
			_, err := c.Compress(sess, src, make([]byte, 16))
			var qe *qat.Error
			if err == nil {
				t.Fatal("tiny buffer accepted")
			}
			if ok := errorsAs(err, &qe); ok && qe.Status != qat.ErrBufTooSmall {
				t.Fatalf("status = %d", qe.Status)
			}
		})
	}
}

func TestDirectionEnforced(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, _ := c.StartInstance(0)
			defer c.StopInstance(in)
			comp, _ := c.SessionInit(in, qat.DirCompress, 6)
			if _, err := c.Decompress(comp, []byte{1, 2, 3}, make([]byte, 16)); err == nil {
				t.Fatal("decompress on a compress session succeeded")
			}
			if _, err := c.SessionInit(in, 7, 0); err == nil {
				t.Fatal("bogus direction accepted")
			}
		})
	}
}

func TestHashMatchesHost(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, _ := c.StartInstance(1)
			defer c.StopInstance(in)
			src := testData(8192)
			var got [32]byte
			err := c.Hash(in, src, got[:])
			if err != nil {
				t.Fatal(err)
			}
			want := sha256.Sum256(src)
			if got != want {
				t.Fatal("offloaded digest differs from host digest")
			}
		})
	}
}

func TestUseAfterTeardown(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			in, _ := c.StartInstance(0)
			defer c.StopInstance(in)
			sess, _ := c.SessionInit(in, qat.DirCompress, 6)
			if err := c.SessionTeardown(sess); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Compress(sess, []byte("x"), make([]byte, 64)); err == nil {
				t.Fatal("compress on dead session succeeded")
			}
		})
	}
}

func TestSpecComplete(t *testing.T) {
	desc := qat.Descriptor()
	if len(desc.Funcs) != 8 {
		t.Fatalf("QAT spec has %d functions", len(desc.Funcs))
	}
	reg := server.NewRegistry(desc)
	qat.BindServer(reg, qat.NewSilo(1))
	if missing := reg.Unregistered(); len(missing) != 0 {
		t.Fatalf("unhandled: %v", missing)
	}
	// The generator must handle this spec too (push-button property).
	src, stats, err := ava.GenerateStack(desc, qat.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 8 || !strings.Contains(string(src), "QatCompress") {
		t.Fatalf("generated stack wrong: %+v", stats)
	}
}

func errorsAs(err error, target **qat.Error) bool {
	e, ok := err.(*qat.Error)
	if ok {
		*target = e
	}
	return ok
}

func TestSweepBogusHandles(t *testing.T) {
	desc := qat.Descriptor()
	reg := server.NewRegistry(desc)
	qat.BindServer(reg, qat.NewSilo(1))
	stacktest.SweepBogusHandles(t, server.New(reg))
}

// Zero-copy data-plane chaos tests: Rodinia workloads must produce
// byte-identical results with the zero-copy paths enabled on every
// transport — scatter-gather sends on TCP, registered-buffer references
// on the shared-address-space transports — including with an API-server
// kill mid-run, where delta checkpoints carry the recovery.
package stacktest_test

import (
	"ava/internal/leaktest"
	"bytes"
	"math"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/guest"
	"ava/internal/rodinia"
	"ava/internal/server"
	"ava/internal/transport"
)

// zcTransferSetup runs the OpenCL boilerplate down to one device buffer.
func zcTransferSetup(t *testing.T, c *cl.RemoteClient, n uint64) (q, mem cl.Ref) {
	t.Helper()
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := c.CreateContext(ds)
	if err != nil {
		t.Fatal(err)
	}
	if q, err = c.CreateQueue(ctx, ds[0], 0); err != nil {
		t.Fatal(err)
	}
	if mem, err = c.CreateBuffer(ctx, 1, n); err != nil {
		t.Fatal(err)
	}
	return q, mem
}

// zcRoundTrip pushes one large blocking write through lib's zero-copy
// path and reads it back, asserting the data survives byte-identical and
// that the stack actually borrowed (not copied) the payload.
func zcRoundTrip(t *testing.T, lib *guest.Lib, registered bool) {
	t.Helper()
	const n = 256 << 10 // well above marshal.SegmentThreshold
	region := make([]byte, 2*n)
	src, dst := region[:n], region[n:]
	for i := range src {
		src[i] = byte(13 * i)
	}
	if registered {
		id := lib.RegisterBuffer(region)
		defer lib.UnregisterBuffer(id)
	}
	c := cl.NewRemote(lib)
	q, mem := zcTransferSetup(t, c, n)
	before := lib.Stats()
	if err := c.EnqueueWrite(q, mem, true, 0, src); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueRead(q, mem, true, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("zero-copy round-trip corrupted the payload")
	}
	after := lib.Stats()
	borrowed := after.BytesBorrowed - before.BytesBorrowed
	copied := after.BytesCopied - before.BytesCopied
	if borrowed < n {
		t.Fatalf("zero-copy path did not engage: borrowed %d bytes, want >= %d (copied %d)",
			borrowed, n, copied)
	}
	if registered {
		// Both directions ride the registered region: the write borrows n
		// at send (DirIn regref) and the read borrows n at reply (DirOut
		// regref, charged when the reply scatters). Anything under 2n means
		// the reply side went unaccounted — the bug where Stats only
		// counted send-side payloads.
		if borrowed < 2*n {
			t.Fatalf("reply-side borrow unaccounted: borrowed %d bytes, want >= %d", borrowed, 2*n)
		}
	} else {
		// Scatter-gather TCP: the write borrows its segments at send, but
		// the read-back reply arrives as inline bytes the guest must copy
		// out — a real n-byte copy that must land in BytesCopied.
		if copied < n {
			t.Fatalf("reply-side copy unaccounted: copied %d bytes, want >= %d", copied, n)
		}
	}
}

// TestZeroCopyByteIdenticalRodinia runs a Rodinia workload with the
// zero-copy data plane enabled on all three transports (no failover, so
// the TCP scatter-gather borrow is live) and requires a checksum
// byte-identical to the native run, plus a forced large-transfer
// round-trip through the zero-copy path itself.
func TestZeroCopyByteIdenticalRodinia(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		t.Fatal("gaussian workload missing")
	}
	want, err := w.Run(cl.NewNative(foSilo()), 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, tr := range []struct {
		name string
		kind ava.TransportKind
	}{
		{"inproc", ava.TransportInProc},
		{"ring", ava.TransportRing},
	} {
		t.Run(tr.name, func(t *testing.T) {
			stack := foStack(foSilo(), ava.WithTransport(tr.kind))
			defer stack.Close()
			lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "zc-vm"},
				guest.WithZeroCopy(true))
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.Run(cl.NewRemote(lib), 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("checksum diverged: got %v want %v", got, want)
			}
			// Registered-buffer fast path: offsets travel, bytes do not.
			zcRoundTrip(t, lib, true)
		})
	}

	t.Run("tcp", func(t *testing.T) {
		// Direct guest→server TCP: the guest owns the socket, so large
		// sync payloads go out as borrowed writev segments.
		silo := foSilo()
		desc := cl.Descriptor()
		reg := server.NewRegistry(desc)
		cl.BindServer(reg, silo)
		srv := server.New(reg)
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			ep, err := l.Accept()
			if err != nil {
				return
			}
			srv.ServeVM(srv.Context(1, "zc-vm"), ep)
		}()
		ep, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		lib := guest.New(desc, ep, guest.WithZeroCopy(true))
		defer lib.Close()

		got, err := w.Run(cl.NewRemote(lib), 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("checksum diverged: got %v want %v", got, want)
		}
		// Scatter-gather borrow on a forced blocking transfer.
		zcRoundTrip(t, lib, false)
	})
}

// TestZeroCopyKillMidRodinia is the chaos variant: zero-copy explicitly
// enabled, API server killed mid-workload, results still byte-identical —
// and the recovery's checkpoints must have used the delta path.
func TestZeroCopyKillMidRodinia(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	w, ok := rodinia.ByName("gaussian")
	if !ok {
		t.Fatal("gaussian workload missing")
	}
	base := foStack(foSilo())
	c, err := clRemoteClient(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	want, err := w.Run(c, 1)
	baseDur := time.Since(start)
	base.Close()
	if err != nil {
		t.Fatal(err)
	}
	delay := max(baseDur/3, time.Millisecond)

	for _, tr := range []struct {
		name string
		kind ava.TransportKind
	}{
		{"inproc", ava.TransportInProc},
		{"ring", ava.TransportRing},
	} {
		t.Run(tr.name, func(t *testing.T) {
			silo := foSilo()
			stack := foStack(silo, ava.WithTransport(tr.kind), ava.WithFailover(foConfig()))
			defer stack.Close()
			lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "zc-chaos-vm"},
				guest.WithZeroCopy(true))
			if err != nil {
				t.Fatal(err)
			}
			c := cl.NewRemote(lib)
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				time.Sleep(delay)
				stack.KillServer(1)
			}()
			got, err := w.Run(c, 1)
			if err != nil {
				t.Fatalf("run with mid-workload kill: %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("post-recovery checksum diverged: got %v want %v", got, want)
			}
			<-killed
			waitRecovered(t, stack.Guardian(1), 1)

			// A second run accumulates checkpoints on the replacement
			// server; with the cl adapter supplying dirty ranges they must
			// land as deltas, not full snapshots.
			got, err = w.Run(c, 1)
			if err != nil {
				t.Fatalf("post-recovery run: %v", err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("second-run checksum diverged: got %v want %v", got, want)
			}
			gs := stack.Guardian(1).Stats()
			if gs.DeltaCheckpoints == 0 {
				t.Fatalf("no delta checkpoints recorded: stats %+v", gs)
			}
		})
	}

	t.Run("tcp", func(t *testing.T) {
		// Disaggregated deployment with failover: the guest's retention
		// window forbids borrowing (frames must survive for replay), so
		// zero-copy being enabled must degrade safely to copies while the
		// kill still recovers byte-identically — and the checkpoints,
		// captured over the wire here, must still land as deltas.
		stack, _ := remoteStack(t, ava.FailoverConfig{
			Checkpoint: ava.CheckpointConfig{Every: 64},
			Backoff:    failover.BackoffConfig{Seed: 7},
		})
		defer stack.Close()
		lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "zc-tcp-vm"},
			guest.WithZeroCopy(true))
		if err != nil {
			t.Fatal(err)
		}
		c := cl.NewRemote(lib)

		go func() {
			time.Sleep(delay)
			stack.KillServer(1)
		}()
		got, err := w.Run(c, 1)
		if err != nil {
			t.Fatalf("run with mid-workload TCP kill: %v", err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("post-recovery checksum diverged: got %v want %v", got, want)
		}
		waitRecovered(t, stack.Guardian(1), 1)

		got, err = w.Run(c, 1)
		if err != nil {
			t.Fatalf("post-recovery run: %v", err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("second-run checksum diverged: got %v want %v", got, want)
		}
		if gs := stack.Guardian(1).Stats(); gs.DeltaCheckpoints == 0 {
			t.Fatalf("no delta checkpoints recorded: stats %+v", gs)
		}
	})
}

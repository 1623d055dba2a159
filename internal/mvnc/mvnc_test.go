package mvnc_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ava"
	"ava/internal/mvnc"
	"ava/internal/server"
	"ava/internal/stacktest"
)

func clients(t *testing.T) map[string]mvnc.Client {
	t.Helper()
	out := map[string]mvnc.Client{}
	out["native"] = mvnc.NewNative(mvnc.NewSilo(mvnc.Config{Sticks: 2}))

	desc := mvnc.Descriptor()
	reg := server.NewRegistry(desc)
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: 2}))
	stack := ava.NewStack(desc, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "ncs-vm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	out["remote"] = mvnc.NewRemote(lib)
	return out
}

func TestDeviceDiscovery(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			n, err := c.GetDeviceCount()
			if err != nil || n != 2 {
				t.Fatalf("count = %d, %v", n, err)
			}
			name := make([]byte, 64)
			err = c.GetDeviceName(0, name)
			dn, _, _ := strings.Cut(string(name), "\x00")
			if err != nil || !strings.HasPrefix(dn, "ncs") {
				t.Fatalf("name = %q, %v", dn, err)
			}
			if err := c.GetDeviceName(9, name); err == nil {
				t.Fatal("bogus index accepted")
			}
		})
	}
}

func TestOpenCloseSemantics(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			d, err := c.OpenDevice(0)
			if err != nil {
				t.Fatal(err)
			}
			// The stick is exclusive while open.
			if _, err := c.OpenDevice(0); err == nil {
				t.Fatal("double open succeeded")
			}
			if err := c.CloseDevice(d); err != nil {
				t.Fatal(err)
			}
			d2, err := c.OpenDevice(0)
			if err != nil {
				t.Fatal(err)
			}
			c.CloseDevice(d2)
		})
	}
}

func TestGraphLifecycleAndOptions(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := c.OpenDevice(0)
			defer c.CloseDevice(d)
			blob := mvnc.GraphBlob("inception_v3_sim", 1, 10, 4096)
			g, err := c.AllocateGraph(d, "g", blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetGraphOption(g, 1, 5000); err != nil {
				t.Fatal(err)
			}
			v, err := c.GetGraphOption(g, 1)
			if err != nil || v != 5000 {
				t.Fatalf("option = %d, %v", v, err)
			}
			if _, err := c.GetGraphOption(g, 99); err == nil {
				t.Fatal("unknown option accepted")
			}
			if err := c.DeallocateGraph(g); err != nil {
				t.Fatal(err)
			}
			if err := c.LoadTensor(g, make([]byte, 3*64*64*4)); err == nil {
				// Async path defers the failure; a sync call must surface it.
				if _, err2 := c.GetGraphOption(g, 1); err2 == nil {
					if derr := c.DeferredError(); derr == nil {
						t.Fatal("use after deallocate succeeded")
					}
				}
			}
		})
	}
}

func TestBadGraphBlob(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := c.OpenDevice(0)
			defer c.CloseDevice(d)
			if _, err := c.AllocateGraph(d, "g", []byte("model=ghost_model")); err == nil {
				t.Fatal("unknown model accepted")
			}
			if _, err := c.AllocateGraph(d, "g", []byte("gibberish")); err == nil {
				t.Fatal("malformed blob accepted")
			}
		})
	}
}

func TestInferenceRoundTrip(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := c.OpenDevice(0)
			defer c.CloseDevice(d)
			g, err := c.AllocateGraph(d, "g", mvnc.GraphBlob("inception_v3_sim", 42, 100, 4096))
			if err != nil {
				t.Fatal(err)
			}
			defer c.DeallocateGraph(g)

			img := make([]byte, 3*64*64*4)
			if err := c.LoadTensor(g, img); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, 100*4)
			if err := c.GetResult(g, out); err != nil {
				t.Fatal(err)
			}
			// GetResult with nothing queued reports no data.
			if err := c.GetResult(g, out); err == nil {
				t.Fatal("empty result queue returned data")
			}
		})
	}
}

func TestWrongTensorSizeRejected(t *testing.T) {
	c := mvnc.NewNative(mvnc.NewSilo(mvnc.Config{}))
	d, _ := c.OpenDevice(0)
	g, _ := c.AllocateGraph(d, "g", mvnc.GraphBlob("inception_v3_sim", 1, 10, 0))
	if err := c.LoadTensor(g, make([]byte, 17)); err == nil {
		t.Fatal("wrong tensor size accepted")
	}
}

func TestInceptionChecksumEquality(t *testing.T) {
	cs := clients(t)
	nsum, err := mvnc.RunInception(cs["native"], 2)
	if err != nil {
		t.Fatal(err)
	}
	rsum, err := mvnc.RunInception(cs["remote"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if nsum != rsum {
		t.Fatalf("native %v != remote %v", nsum, rsum)
	}
	if nsum == 0 {
		t.Fatal("degenerate checksum")
	}
}

func TestSpecHandlersComplete(t *testing.T) {
	desc := mvnc.Descriptor()
	reg := server.NewRegistry(desc)
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{}))
	if missing := reg.Unregistered(); len(missing) != 0 {
		t.Fatalf("unhandled: %v", missing)
	}
	if len(desc.Funcs) != 10 {
		t.Fatalf("MVNC spec has %d functions", len(desc.Funcs))
	}
}

func TestLoadTensorAsyncInSpec(t *testing.T) {
	desc := mvnc.Descriptor()
	fd, _ := desc.Lookup("mvncLoadTensor")
	if sync, _ := fd.IsSync(desc.API, nil); sync {
		t.Fatal("mvncLoadTensor should be async")
	}
}

func TestGraphOOMPath(t *testing.T) {
	// Tiny stick memory: allocation must fail with an OOM the server maps
	// to its retry hook.
	silo := mvnc.NewSilo(mvnc.Config{MemoryBytes: 1024})
	c := mvnc.NewNative(silo)
	d, _ := c.OpenDevice(0)
	if _, err := c.AllocateGraph(d, "g", mvnc.GraphBlob("inception_v3_sim", 1, 10, 1<<20)); err == nil {
		t.Fatal("oversized graph allocated")
	}
}

func TestResultQueueFIFO(t *testing.T) {
	for name, c := range clients(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := c.OpenDevice(0)
			defer c.CloseDevice(d)
			g, err := c.AllocateGraph(d, "g", mvnc.GraphBlob("inception_v3_sim", 42, 10, 1024))
			if err != nil {
				t.Fatal(err)
			}
			defer c.DeallocateGraph(g)
			// Queue three distinct inferences, then drain: results must
			// come back in submission order.
			imgs := make([][]byte, 3)
			for i := range imgs {
				imgs[i] = make([]byte, 3*64*64*4)
				for p := 0; p+4 <= len(imgs[i]); p += 4 {
					v := float32(i+1) * float32(p%97) / 97.0
					binary.LittleEndian.PutUint32(imgs[i][p:], math.Float32bits(v))
				}
				if err := c.LoadTensor(g, imgs[i]); err != nil {
					t.Fatal(err)
				}
			}
			var prev []byte
			for i := 0; i < 3; i++ {
				out := make([]byte, 10*4)
				if err := c.GetResult(g, out); err != nil {
					t.Fatalf("result %d: %v", i, err)
				}
				if prev != nil && bytes.Equal(out, prev) {
					t.Fatalf("results %d and %d identical — queue order suspect", i-1, i)
				}
				prev = append(prev[:0], out...)
			}
			out := make([]byte, 10*4)
			if err := c.GetResult(g, out); err == nil {
				t.Fatal("fourth result from three inferences")
			}
		})
	}
}

func TestSweepBogusHandles(t *testing.T) {
	desc := mvnc.Descriptor()
	reg := server.NewRegistry(desc)
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{}))
	stacktest.SweepBogusHandles(t, server.New(reg))
}

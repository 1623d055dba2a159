package toydev_test

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"ava"
	"ava/internal/cava"
	"ava/internal/gen/toydev"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/spec"
	"ava/internal/stacktest"
)

// silo implements toydev.Implementation: the only hand-written component,
// exactly as the paper's workflow prescribes (the developer writes the
// silo glue; CAvA generates everything else — handle table included, so the
// silo sees its own objects and never a guest handle).
type silo struct {
	mu    sync.Mutex
	count uint32
}

type dev struct {
	data  []byte
	scale float64
}

func newSilo() *silo { return &silo{} }

func (s *silo) OpenDevice(_ *server.Context, index uint32) (any, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	return &dev{scale: 1}, 0
}

func (s *silo) DeviceCount(*server.Context) (uint32, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, 0
}

func (s *silo) Store(_ *server.Context, d any, size uint64, data []byte, blocking uint32) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	dv := d.(*dev)
	dv.data = append(dv.data[:0], data...)
	return 0
}

func (s *silo) Load(_ *server.Context, d any, size uint64, out []byte) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(out, d.(*dev).data)
	return 0
}

func (s *silo) Scale(_ *server.Context, d any, factor float64) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.(*dev).scale *= factor
	return 0
}

func (s *silo) CloseDevice(*server.Context, any) int32 { return 0 }

var _ toydev.Implementation = (*silo)(nil)

func loadDescriptor(t *testing.T) *cava.Descriptor {
	t.Helper()
	src, err := os.ReadFile("toydev.ava")
	if err != nil {
		t.Fatal(err)
	}
	api, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cava.Compile(api)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeneratedStackEndToEnd(t *testing.T) {
	desc := loadDescriptor(t)
	reg := server.NewRegistry(desc)
	toydev.Register(reg, newSilo())
	if missing := reg.Unregistered(); len(missing) != 0 {
		t.Fatalf("generated Register missed: %v", missing)
	}
	stack := ava.NewStack(desc, reg)
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := toydev.NewStubs(lib)

	var h marshal.Handle
	st, err := c.OpenDevice(0, &h)
	if err != nil || st != 0 || h == 0 {
		t.Fatalf("open: %d %v %d", st, err, h)
	}
	data := []byte("through generated stubs")
	if st, err := c.Store(h, uint64(len(data)), data, 1); err != nil || st != 0 {
		t.Fatalf("store: %d %v", st, err)
	}
	out := make([]byte, len(data))
	if st, err := c.Load(h, uint64(len(out)), out); err != nil || st != 0 {
		t.Fatalf("load: %d %v", st, err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("loaded %q", out)
	}

	// Async stub returns success immediately and orders before sync calls.
	if st, err := c.Scale(h, 2.5); err != nil || st != 0 {
		t.Fatalf("scale: %d %v", st, err)
	}
	var n uint32
	if st, err := c.DeviceCount(&n); err != nil || st != 0 || n != 1 {
		t.Fatalf("count: %d %v %d", st, err, n)
	}
	if st, err := c.CloseDevice(h); err != nil || st != 0 {
		t.Fatalf("close: %d %v", st, err)
	}
}

// The generated Client runs one sequence natively, on the silo, and remoted,
// over a stack: an untyped handle, the conditionally synchronous store (both
// ways) and the asynchronous scale answer the same either way.
func TestGeneratedClientsAgree(t *testing.T) {
	type outcome struct {
		count    uint32
		loaded   [][]byte
		deferred error
	}
	run := func(c toydev.Client) (o outcome) {
		d, err := c.OpenDevice(0)
		if err != nil {
			t.Fatal(err)
		}
		if o.count, err = c.DeviceCount(); err != nil {
			t.Fatal(err)
		}
		for i, blocking := range []uint32{1, 0} {
			data := []byte{byte(i), 'a', 'v', 'a'}
			if err := c.Store(d, data, blocking); err != nil {
				t.Fatalf("store (blocking %d): %v", blocking, err)
			}
			if err := c.Scale(d, 2); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, len(data))
			if err := c.Load(d, out); err != nil {
				t.Fatal(err)
			}
			o.loaded = append(o.loaded, out)
		}
		if err := c.CloseDevice(d); err != nil {
			t.Fatal(err)
		}
		o.deferred = c.DeferredError()
		return o
	}
	want := run(toydev.NewNative(newSilo()))

	desc := loadDescriptor(t)
	reg := server.NewRegistry(desc)
	toydev.Register(reg, newSilo())
	stack := ava.NewStack(desc, reg)
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
	if err != nil {
		t.Fatal(err)
	}
	got := run(toydev.NewRemote(lib))
	if want.count != 1 || want.deferred != nil || !bytes.Equal(want.loaded[1], []byte{1, 'a', 'v', 'a'}) {
		t.Fatalf("native run = %+v", want)
	}
	if got.count != want.count || got.deferred != want.deferred || len(got.loaded) != len(want.loaded) {
		t.Fatalf("remote run = %+v, native %+v", got, want)
	}
	for i := range want.loaded {
		if !bytes.Equal(got.loaded[i], want.loaded[i]) {
			t.Fatalf("load %d: remote %q, native %q", i, got.loaded[i], want.loaded[i])
		}
	}
}

// TestGeneratedFileIsCurrent is the golden test: the committed toydev.go
// must equal a fresh generation from toydev.ava.
func TestGeneratedFileIsCurrent(t *testing.T) {
	src, err := os.ReadFile("toydev.ava")
	if err != nil {
		t.Fatal(err)
	}
	api, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := cava.Compile(api)
	if err != nil {
		t.Fatal(err)
	}
	fresh, st, err := cava.Generate(desc, string(src), cava.GenOptions{Package: "toydev"})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("toydev.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, committed) {
		t.Fatal("toydev.go is stale; regenerate with cmd/cava")
	}
	if st.Functions != 6 || st.GeneratedLines <= st.SpecLines {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGeneratedDispatchSurvivesAdversary(t *testing.T) {
	desc := loadDescriptor(t)
	reg := server.NewRegistry(desc)
	toydev.Register(reg, newSilo())
	srv := server.New(reg)
	stacktest.SweepBogusHandles(t, srv)
	stacktest.SweepRandomArgs(t, srv, 50)
}

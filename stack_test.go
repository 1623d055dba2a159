package ava_test

import (
	"strings"
	"testing"

	"ava"
	"ava/internal/cl"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/server"
)

const stackSpec = `
handle obj;
const OK = 0;
type st = int32_t { success(OK); };
st make(uint32_t kind, obj *o) {
  parameter(o) { out; element { allocates; } }
  track(create, o);
}
st poke(obj o, uint32_t v) { async; }
st count(uint32_t *n) { parameter(n) { out; element; } }
`

func newToyStack(t *testing.T, opts ...ava.Option) *ava.Stack {
	t.Helper()
	desc, err := ava.CompileSpec(stackSpec)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry(desc)
	var pokes int
	reg.MustRegister("make", func(v *server.Invocation) error {
		v.SetOutHandle(1, v.Ctx.Handles.Insert(int(v.Uint(0))))
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("poke", func(v *server.Invocation) error {
		pokes++
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("count", func(v *server.Invocation) error {
		v.SetOutUint(0, uint64(pokes))
		v.SetStatus(0)
		return nil
	})
	stack := ava.NewStack(desc, reg, opts...)
	t.Cleanup(stack.Close)
	return stack
}

func TestStackAttachDetach(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	var h marshal.Handle
	if _, err := lib.Call("make", uint32(7), &h); err != nil {
		t.Fatal(err)
	}
	if h == 0 {
		t.Fatal("no handle")
	}
	stack.DetachVM(1)
	if _, err := lib.Call("make", uint32(7), &h); err == nil {
		t.Fatal("detached VM still served")
	}
	// Re-attach with the same ID works.
	if _, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"}); err != nil {
		t.Fatal(err)
	}
}

func TestStackDuplicateAttach(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t)
	if _, err := stack.AttachVM(ava.VMConfig{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := stack.AttachVM(ava.VMConfig{ID: 1}); err == nil {
		t.Fatal("duplicate VM attached")
	}
}

func TestStackMultipleVMsIsolated(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t)
	lib1, _ := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	lib2, _ := stack.AttachVM(ava.VMConfig{ID: 2, Name: "vm2"})
	var h1, h2 marshal.Handle
	lib1.Call("make", uint32(1), &h1)
	lib2.Call("make", uint32(2), &h2)
	// Handle tables are per-VM: both guests get handle 1, but they name
	// different objects.
	ctx1 := stack.Server.Context(1, "vm1")
	ctx2 := stack.Server.Context(2, "vm2")
	o1, _ := ctx1.Handles.Get(h1)
	o2, _ := ctx2.Handles.Get(h2)
	if o1 == o2 {
		t.Fatal("VMs share objects")
	}
	if o1 != 1 || o2 != 2 {
		t.Fatalf("objects = %v, %v", o1, o2)
	}
}

func TestStackRingTransport(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t, ava.WithRingTransport(1<<16))
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm1"})
	if err != nil {
		t.Fatal(err)
	}
	var h marshal.Handle
	if _, err := lib.Call("make", uint32(7), &h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := lib.Call("poke", h, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	var n uint32
	if _, err := lib.Call("count", &n); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("pokes = %d", n)
	}
}

func TestStackAsyncByDefault(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t)
	lib, _ := stack.AttachVM(ava.VMConfig{ID: 1, Name: "vm"})
	var h marshal.Handle
	lib.Call("make", uint32(0), &h)
	lib.Call("poke", h, uint32(1))
	if st := lib.Stats(); st.AsyncCalls != 1 {
		t.Fatalf("default stats = %+v", st)
	}
}

func TestCompileSpecErrors(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if _, err := ava.CompileSpec("not a spec %%"); err == nil {
		t.Fatal("garbage compiled")
	}
	if _, err := ava.CompileSpec(`mystery f(int32_t a);`); err == nil {
		t.Fatal("invalid spec compiled")
	}
}

func TestInferSpecWorkflow(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	text, notes, err := ava.InferSpec(`
		handle dev;
		const OK = 0;
		type st = int32_t { success(OK); };
		st write(dev d, const uint8_t *data, size_t data_size);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) == 0 {
		t.Fatal("no inference notes")
	}
	if !strings.Contains(text, "buffer(data_size)") {
		t.Fatalf("inferred spec missing size:\n%s", text)
	}
	if _, err := ava.CompileSpec(text); err != nil {
		t.Fatalf("inferred spec does not compile: %v", err)
	}
}

func TestStackContextAccess(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	stack := newToyStack(t)
	lib, _ := stack.AttachVM(ava.VMConfig{ID: 5, Name: "vm5"})
	var h marshal.Handle
	lib.Call("make", uint32(0), &h)
	ctx := stack.Context(5)
	if ctx == nil {
		t.Fatal("no context for an attached VM")
	}
	if _, ok := ctx.Handles.Get(h); !ok {
		t.Fatalf("the VM's context does not hold the handle %d it was given", h)
	}

	// Asking about a VM the server does not know — never attached, or
	// detached — answers nil and plants nothing: a phantom context would
	// show up as a VM row in /stats, /vms and Server.Snapshot().
	if ctx := stack.Context(77); ctx != nil {
		t.Fatalf("Context of an unknown VM = %+v", ctx)
	}
	if rows := stack.Server.Snapshot(); len(rows) != 1 || rows[0].VM != 5 {
		t.Fatalf("asking about VM 77 changed the snapshot: %+v", rows)
	}
	stack.DetachVM(5)
	if ctx := stack.Context(5); ctx != nil {
		t.Fatalf("Context of a detached VM = %+v", ctx)
	}
	if rows := stack.Server.Snapshot(); len(rows) != 0 {
		t.Fatalf("asking about detached VM 5 planted a context: %+v", rows)
	}
}

func TestClSpecIsGeneratable(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	// The shipped OpenCL spec survives the generator path through the public
	// entry point too (internal/cl's golden test pins the committed output).
	desc := cl.Descriptor()
	src, stats, err := ava.GenerateStack(desc, cl.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 39 || len(src) == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(string(src), "func (c *Stubs) ClEnqueueReadBuffer(") {
		t.Fatal("generated guest stub missing")
	}
	if !strings.Contains(string(src), "Implementation interface") {
		t.Fatal("generated server interface missing")
	}
}

// FailoverConfig.Adapter is a leftover spelling (benchmark/ still sets it):
// the object-state adapter is the registry's, installed by the API binding.
// The stack consults the config's only for a registry that carries none.
func TestFailoverConfigAdapterIsOnlyAFallback(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	fromConfig := cl.MigrationAdapter{Silo: cl.NewSilo(cl.Config{})}
	fc := ava.WithFailover(ava.FailoverConfig{Adapter: fromConfig})

	bare := ava.NewStack(desc, server.NewRegistry(desc), fc)
	defer bare.Close()
	if got := bare.Server.Registry().Adapter; got != server.Adapter(fromConfig) {
		t.Errorf("a registry without an adapter got %v, want the config's", got)
	}

	silo := cl.NewSilo(cl.Config{})
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	bound := ava.NewStack(desc, reg, fc)
	defer bound.Close()
	if got := bound.Server.Registry().Adapter; got != server.Adapter(cl.MigrationAdapter{Silo: silo}) {
		t.Errorf("a bound registry's adapter was replaced by %v", got)
	}
}

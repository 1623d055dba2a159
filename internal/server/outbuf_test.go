package server_test

import (
	"bytes"
	"testing"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/guest"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// attachVM serves vm on srv over an in-process pair and returns its guest
// library; the serve loop is waited for when the test ends.
func attachVM(t *testing.T, srv *server.Server, desc *cava.Descriptor, vm uint32) *guest.Lib {
	t.Helper()
	guestEP, serverEP := transport.NewInProc()
	served := make(chan error, 1)
	go func() { served <- srv.ServeVM(srv.Context(vm, "vm"), serverEP) }()
	lib := guest.New(desc, guestEP)
	t.Cleanup(func() {
		lib.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeVM(vm %d): %v", vm, err)
		}
	})
	return lib
}

// clQueue walks a remote client to a command queue.
func clQueue(t *testing.T, c *cl.RemoteClient) (ctx, q cl.Ref) {
	t.Helper()
	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	if ctx, err = c.CreateContext(ds); err != nil {
		t.Fatal(err)
	}
	if q, err = c.CreateQueue(ctx, ds[0], 0); err != nil {
		t.Fatal(err)
	}
	return ctx, q
}

func clServer(desc *cava.Descriptor) *server.Server {
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, cl.NewSilo(cl.Config{}))
	return server.New(reg)
}

// Out space is recycled across calls and so across VMs: what one VM read
// must never show through to the next. VM A reads 256 KiB of pattern; VM B
// then asks for the same size from a cl_mem that does not exist — the handler
// answers CL_INVALID_MEM_OBJECT and writes nothing, the reply still carries
// the buffer — and must receive zeros, not A's data.
func TestRecycledOutSpaceNeverLeaksAcrossVMs(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	srv := clServer(desc)
	a, b := cl.NewRemote(attachVM(t, srv, desc, 1)), cl.NewRemote(attachVM(t, srv, desc, 2))

	const size = 256 << 10
	secret := bytes.Repeat([]byte{0xC5}, size)
	ctxA, qA := clQueue(t, a)
	mem, err := a.CreateBuffer(ctxA, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueWrite(qA, mem, true, 0, secret); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := a.EnqueueRead(qA, mem, true, 0, got); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("VM A's own read: err %v, intact %v", err, bytes.Equal(got, secret))
	}

	_, qB := clQueue(t, b)
	got = bytes.Repeat([]byte{0xFF}, size)
	err = b.EnqueueRead(qB, cl.Ref{}, true, 0, got)
	if err == nil {
		t.Fatal("VM B's read of a cl_mem that does not exist succeeded")
	}
	if n := nonZero(got); n != 0 {
		t.Fatalf("VM B received %d non-zero bytes from a read that wrote nothing: recycled out space was not cleared", n)
	}
}

func nonZero(b []byte) int { return len(b) - bytes.Count(b, []byte{0}) }

const fetchSpec = `
api "fetchtest";
const OK = 0;
type st = int32_t { success(OK); };
st fill(size_t size, void *out) { parameter(out) { out; buffer(size); } }
st half(size_t size, void *out) { parameter(out) { out; buffer(size); } }
`

// The same promise for any handler, not only the generated ones: a handler
// that fills only the first half of its out space leaves zeros in the rest,
// whatever the call before it — another VM's — put there.
func TestOutSpaceAHandlerLeavesUntouchedIsZero(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cava.MustCompile(fetchSpec)
	reg := server.NewRegistry(desc)
	write := func(frac int) server.Handler {
		return func(inv *server.Invocation) error {
			out := inv.Bytes(1)
			for i := range out[:len(out)/frac] {
				out[i] = 0xC5
			}
			inv.SetStatus(0)
			return nil
		}
	}
	reg.MustRegister("fill", write(1))
	reg.MustRegister("half", write(2))
	srv := server.New(reg)
	a, b := attachVM(t, srv, desc, 1), attachVM(t, srv, desc, 2)

	const size = 256 << 10
	got := make([]byte, size)
	if _, err := a.Call("fill", uint64(size), got); err != nil || nonZero(got) != size {
		t.Fatalf("VM A's fill: err %v, %d of %d bytes written", err, nonZero(got), size)
	}
	got = bytes.Repeat([]byte{0xFF}, size)
	if _, err := b.Call("half", uint64(size), got); err != nil {
		t.Fatal(err)
	}
	if n := nonZero(got[:size/2]); n != size/2 {
		t.Fatalf("VM B's half: %d of the %d bytes the handler wrote arrived", n, size/2)
	}
	if n := nonZero(got[size/2:]); n != 0 {
		t.Fatalf("VM B received %d non-zero bytes in the half its handler never wrote", n)
	}
}

// An out length is the guest's word. clEnqueueReadBuffer with size 1<<44 and
// a matching placeholder is a frame of 130 bytes that passes both length
// checks;
// allocating what it asks for ends the process — `fatal error: runtime: out
// of memory`, which no recover catches — and with it every VM's API server.
// Its reply could not be framed anyway, so it is denied before any space is
// drawn, and the server goes on to answer the next VM.
func TestOversizedOutBufferIsDeniedAndTheServerKeepsServing(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc := cl.Descriptor()
	srv := clServer(desc)
	fd, _ := desc.Lookup("clEnqueueReadBuffer")
	read := func(size uint64) *marshal.Call {
		return &marshal.Call{Seq: 1, Func: fd.ID, Args: []marshal.Value{
			marshal.HandleVal(1), marshal.HandleVal(2), marshal.Uint(1), marshal.Uint(0), marshal.Uint(size),
			marshal.Len(size), marshal.Uint(0), marshal.Null(), marshal.Null(),
		}}
	}
	evil := srv.Context(1, "evil")
	for _, size := range []uint64{transport.MaxFrame + 1, 1 << 44, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		rep := srv.Execute(evil, read(size))
		if rep.Status != marshal.StatusDenied {
			t.Errorf("read of %d bytes: status %v (%s), want StatusDenied", size, rep.Status, rep.Err)
		}
	}
	// The largest reply that can be framed is still served (and answered by
	// the handler: these handles name nothing).
	if rep := srv.Execute(evil, read(transport.MaxFrame)); rep.Status != marshal.StatusOK {
		t.Errorf("read of MaxFrame bytes: status %v (%s), want it dispatched", rep.Status, rep.Err)
	}

	c := cl.NewRemote(attachVM(t, srv, desc, 2))
	ctx, q := clQueue(t, c)
	mem, err := c.CreateBuffer(ctx, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	data, got := bytes.Repeat([]byte{7}, 64), make([]byte, 64)
	if err := c.EnqueueWrite(q, mem, true, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueRead(q, mem, true, 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second VM after the denied calls: err %v, data intact %v", err, bytes.Equal(got, data))
	}
}

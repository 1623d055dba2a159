package ava_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/devsim"
	"ava/internal/hv"
	"ava/internal/leaktest"
	"ava/internal/server"
)

func clQuotaStack(t *testing.T, quotas map[string]int64) (*ava.Stack, *cl.RemoteClient) {
	t.Helper()
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{Name: "test-gpu", MemoryBytes: 1 << 30, ComputeUnits: 4}},
	})
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	stack := ava.NewStack(desc, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "guest", Quotas: quotas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	return stack, cl.NewRemote(lib)
}

// A non-blocking clEnqueueWriteBuffer denied at the router (bandwidth
// quota) has no reply to carry the error; §4.2 requires the next
// synchronization point — clFinish — to surface it.
func TestStackDeniedAsyncEnqueueSurfacesAtFinish(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	_, c := clQuotaStack(t, map[string]int64{"bandwidth": 1000})

	ps, err := c.PlatformIDs()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.DeviceIDs(ps[0], cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := c.CreateContext(ds[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.CreateQueue(ctx, ds[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := c.CreateBuffer(ctx, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}

	// 4096 bytes against a 1000-byte bandwidth quota: the router drops the
	// async write with no reply.
	if err := c.EnqueueWrite(q, buf, false, 0, make([]byte, 4096)); err != nil {
		t.Fatalf("async enqueue returned synchronously: %v", err)
	}
	// clFinish is the synchronization point: the deferred denial lands here.
	err = c.Finish(q)
	if err == nil {
		t.Fatal("clFinish after denied async write returned nil, want deferred denial")
	}
	if !strings.Contains(err.Error(), "deferred") || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("clFinish error = %v, want deferred quota denial", err)
	}
	// The deferred slot drains: the queue is usable again.
	if err := c.Finish(q); err != nil {
		t.Fatalf("second clFinish = %v, want nil", err)
	}
}

// overloadedSched reports permanent admission pressure, forcing the shed
// path regardless of real load.
type overloadedSched struct{}

func (overloadedSched) Admit(vm hv.VMID, cost int64, pri uint8) bool { return false }
func (overloadedSched) Done(vm hv.VMID, cost int64, measured int64)  {}
func (overloadedSched) Usage(vm hv.VMID) int64                       { return 0 }
func (overloadedSched) QueueDepth() int                              { return 1 << 20 }
func (overloadedSched) RecentStall() time.Duration                   { return time.Hour }

// A shed call surfaces as ava.ErrOverloaded through the full stack, and
// the guest library counts it.
func TestStackShedCallMapsToErrOverloaded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	desc, err := ava.CompileSpec(`
const OK = 0;
type st = int32_t { success(OK); };
st ping(uint32_t v);
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry(desc)
	reg.MustRegister("ping", func(inv *server.Invocation) error {
		inv.SetStatus(0)
		return nil
	})
	stack := ava.NewStack(desc, reg,
		ava.WithScheduler(overloadedSched{}),
		ava.WithShedding(ava.ShedConfig{MaxQueueDepth: 1}))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "guest"})
	if err != nil {
		t.Fatal(err)
	}

	_, err = lib.Call("ping", uint32(1))
	if !errors.Is(err, ava.ErrOverloaded) {
		t.Fatalf("shed call error = %v, want ava.ErrOverloaded", err)
	}
	if got := lib.Stats().OverloadDenied; got != 1 {
		t.Fatalf("guest OverloadDenied = %d, want 1", got)
	}
	// High-priority calls pass through the same overloaded router.
	if _, err := lib.CallWith(ava.CallOptions{Priority: 255}, "ping", uint32(2)); err != nil {
		t.Fatalf("high-priority call = %v, want nil", err)
	}
	st, err := stack.Router.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedDenied != 1 || st.Forwarded != 1 {
		t.Fatalf("router stats = %+v", st)
	}
}

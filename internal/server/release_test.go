package server

import (
	"reflect"
	"sync"
	"testing"

	"ava/internal/cava"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// releaseLog installs a release on srv's registry that records each object
// it is given, in order.
type releaseLog struct {
	mu   sync.Mutex
	objs []any
}

func logReleases(srv *Server) *releaseLog {
	l := &releaseLog{}
	srv.reg.SetRelease(func(_ *Context, obj any) {
		l.mu.Lock()
		l.objs = append(l.objs, obj)
		l.mu.Unlock()
	})
	return l
}

func (l *releaseLog) released() []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]any(nil), l.objs...)
}

// roundTrip sends one synchronous call on ep and returns its reply.
func roundTrip(t *testing.T, ep transport.Endpoint, c *marshal.Call) *marshal.Reply {
	t.Helper()
	if err := ep.Send(marshal.EncodeBatch([][]byte{marshal.EncodeCall(c)})); err != nil {
		t.Fatal(err)
	}
	frame, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil || rep.Status != marshal.StatusOK {
		t.Fatalf("reply %+v, %v", rep, err)
	}
	return rep
}

func createKind(t *testing.T, ep transport.Endpoint, desc *cava.Descriptor, kind uint64) marshal.Handle {
	t.Helper()
	return roundTrip(t, ep, call(desc, "create", marshal.Uint(kind), marshal.Len(8))).Outs[0].Handle()
}

// serve starts ServeVM for ctx on a fresh in-process pair and returns the
// guest's end and ServeVM's result.
func serve(srv *Server, ctx *Context) (transport.Endpoint, chan error) {
	guestEP, serverEP := transport.NewInProc()
	served := make(chan error, 1)
	go func() { served <- srv.ServeVM(ctx, serverEP) }()
	return guestEP, served
}

// When ServeVM returns, the incarnation is over: every object the table
// still holds is released once, newest handle first, and the table is
// empty. The context and its counters stay for observers.
func TestReleaseWhenServeVMReturns(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	log := logReleases(srv)
	ep, served := serve(srv, ctx)
	for kind := uint64(1); kind <= 3; kind++ {
		createKind(t, ep, desc, kind)
	}
	roundTrip(t, ep, call(desc, "destroy", marshal.HandleVal(2)))
	ep.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got, want := log.released(), []any{"obj-kind-3", "obj-kind-1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	if n := ctx.Handles.Len(); n != 0 {
		t.Fatalf("%d handles left after the incarnation ended", n)
	}
	if srv.Lookup(7) != ctx || ctx.Stats().Calls != 4 {
		t.Fatalf("the ended context's counters are gone: %+v", ctx.Stats())
	}
}

// DropContext ends the incarnation itself: it closes the endpoint a deaf
// guest never closed, and returns only once ServeVM has released what the
// context held. A context that was never served is released by DropContext
// directly, and a dropped context cannot be served again.
func TestReleaseAtDropContext(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv, ctx, desc := newTestServer(t)
	log := logReleases(srv)
	ep, served := serve(srv, ctx)
	defer ep.Close()
	createKind(t, ep, desc, 1)
	srv.DropContext(7)
	if got := log.released(); !reflect.DeepEqual(got, []any{"obj-kind-1"}) {
		t.Fatalf("released %v when DropContext returned, want [obj-kind-1]", got)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Recv(); err == nil {
		t.Fatal("the dropped incarnation's endpoint is still open")
	}

	executed := srv.Context(8, "vm8")
	if rep := srv.Execute(executed, call(desc, "create", marshal.Uint(5), marshal.Len(8))); rep.Status != marshal.StatusOK {
		t.Fatalf("create: %+v", rep)
	}
	srv.DropContext(8)
	if got := log.released(); !reflect.DeepEqual(got, []any{"obj-kind-1", "obj-kind-5"}) {
		t.Fatalf("released %v, want the never-served context's object too", got)
	}

	again, served := serve(srv, executed)
	defer again.Close()
	if err := <-served; err == nil {
		t.Fatal("ServeVM served a dropped context")
	}
	if _, err := again.Recv(); err == nil {
		t.Fatal("a refused ServeVM left its endpoint open")
	}
}

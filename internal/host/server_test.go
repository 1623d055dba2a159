package host_test

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ava/internal/cl"
	"ava/internal/ctlplane"
	"ava/internal/devsim"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// clServer builds an OpenCL API server over its own small silo, with the
// restorer a guardian failing over from a peer replays snapshots through.
func clServer() *server.Server {
	silo := cl.NewSilo(cl.Config{
		Devices: []devsim.Config{{
			Name:           "host-test-gpu",
			MemoryBytes:    2 << 30,
			ComputeUnits:   8,
			KernelOverhead: 2 * time.Microsecond,
			DMALatency:     2 * time.Microsecond,
			DMABandwidth:   12e9,
		}},
	})
	reg := server.NewRegistry(cl.Descriptor())
	cl.BindServer(reg, silo)
	return server.New(reg)
}

// startHost starts a host on a free port and kills it when the test ends
// (a no-op after the test's own Shutdown or Kill).
func startHost(t *testing.T, srv *server.Server, cfg host.Config) *host.Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	h, err := host.Start(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Kill)
	return h
}

// greet connects to addr the way every dialer in the tree does: hello,
// then the host's admission verdict, which must be an accept.
func greet(t *testing.T, addr string, vm, epoch uint32, name string) transport.Endpoint {
	t.Helper()
	link, err := failover.DialHost(addr, vm, epoch, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })
	return link
}

// helloFrame is the first frame a dialer sends.
func helloFrame(vm, epoch uint32, name string) []byte {
	return transport.EncodeCtl(transport.Ctl{Op: transport.OpHello, VM: vm, Seq: uint64(epoch), Payload: []byte(name)})
}

// dialHello connects to addr and sends the raw frame hello first, leaving
// whatever the host answers unread.
func dialHello(t *testing.T, addr string, hello []byte) transport.Endpoint {
	t.Helper()
	ep, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	if err := ep.Send(hello); err != nil {
		t.Fatal(err)
	}
	return ep
}

// platformCount issues one synchronous clGetPlatformIDs and returns the
// decoded reply.
func platformCount(t *testing.T, ep transport.Endpoint, seq uint64) *marshal.Reply {
	t.Helper()
	fd, ok := cl.Descriptor().Lookup("clGetPlatformIDs")
	if !ok {
		t.Fatal("clGetPlatformIDs missing")
	}
	call := marshal.EncodeCall(&marshal.Call{
		Seq: seq, Func: fd.ID,
		Args: []marshal.Value{marshal.Uint(0), marshal.Null(), marshal.Len(4)},
	})
	if err := ep.Send(marshal.EncodeBatch([][]byte{call})); err != nil {
		t.Fatal(err)
	}
	frame, err := ep.Recv()
	if err != nil {
		t.Fatalf("reply to call %d lost: %v", seq, err)
	}
	rep, err := marshal.DecodeReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// waitFor polls cond until it holds or two seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// There is one hello form. It binds the VM under the announced identity
// and is answered before any reply. A first frame that is anything else —
// the retired [vm][name], AVA1 and AVA2 preambles, a truncated envelope, a
// control op that is not a VM hello, bytes from some other protocol — ends
// the connection without
// touching any context: each of these used to "decode" into a VM id, and
// the host then dropped that VM's live context to bind the newcomer.
func TestHostHelloFormsAndCall(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv := clServer()
	h := startHost(t, srv, host.Config{})

	live := greet(t, h.Addr(), 9, 3, "failover-guest")
	if rep := platformCount(t, live, 1); rep.Status != marshal.StatusOK || rep.Outs[1].Uint() != 1 {
		t.Fatalf("reply = %+v", rep)
	}
	if ctx := srv.Lookup(9); ctx == nil || ctx.Name != "failover-guest" {
		t.Fatalf("context = %+v, want the announced identity", ctx)
	}
	before := srv.Snapshot()

	legacy := binary.LittleEndian.AppendUint32(nil, 9) // claims the live VM
	for name, frame := range map[string][]byte{
		"legacy":   append(legacy[:4:4], "tcp-guest"...),
		"ava1":     append(legacy[:4:4], "AVA1\x03\x00\x00\x00failover-guest"...),
		"short":    {1, 2},
		"ava2":     append(legacy[:4:4], "AVA2\x03\x00\x00\x00failover-guest"...),
		"no-seq":   helloFrame(9, 3, "")[:10],
		"wrong-op": transport.EncodeCtl(transport.Ctl{Op: transport.OpMirrorHello, VM: 9, Payload: []byte("failover-guest")}),
		"http":     []byte("GET /vms HTTP/1.1\r\n\r\n"),
	} {
		if _, err := dialHello(t, h.Addr(), frame).Recv(); err == nil {
			t.Fatalf("%s: malformed hello was answered", name)
		}
	}
	if got := srv.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("malformed hellos disturbed the contexts:\n got %+v\nwant %+v", got, before)
	}
	// The live VM's connection and context are the ones it had.
	if rep := platformCount(t, live, 2); rep.Status != marshal.StatusOK {
		t.Fatalf("live VM after the malformed hellos: %+v", rep)
	}
	if got := h.VMs(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("bound VMs = %v, want [9]", got)
	}
}

// An eviction must be visible at dial time: the serving connection is
// severed, and a reconnect inside the refusal window gets an explicit
// reject ack — a dial *failure* the guardian charges against its per-host
// budget — never a silent accept-then-sever the dialer would mistake for
// a successful landing.
func TestHostEvictSeversAndRefusesWithRejectAck(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{})

	client := greet(t, h.Addr(), 4, 0, "evictee")

	// Evicting an unknown VM is an error; the bound VM evicts cleanly.
	if err := h.Evict(99, ""); err == nil {
		t.Fatal("evicting an unconnected VM succeeded")
	}
	if err := h.Evict(4, "peer-host"); err != nil {
		t.Fatal(err)
	}
	// The serving link dies severed — a crash signal the guardian's
	// failure detector acts on, not an orderly end-of-stream.
	if _, err := client.Recv(); !errors.Is(err, transport.ErrSevered) {
		t.Fatalf("recv after eviction = %v, want ErrSevered", err)
	}

	// A bounce-back inside the refusal window is rejected at the hello,
	// with the reason.
	_, err := failover.DialHost(h.Addr(), 4, 0, "evictee")
	if !errors.Is(err, transport.ErrRefused) || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("redial inside the refusal window: %v, want a refusal naming the eviction", err)
	}
	// The rejected connection was never bound as the VM's serving link
	// (the evicted one unbinds as its serve loop unwinds).
	waitFor(t, "VM 4 to unbind", func() bool { return len(h.VMs()) == 0 })
}

// A graceful shutdown drains in-flight connections and ends them with an
// orderly close: the guest must observe ErrClosed (end-of-stream), never
// ErrSevered — the failover layer treats a sever as a server crash and
// would trigger a pointless recovery against a host that is merely
// restarting for maintenance.
func TestHostShutdownDrainIsNotSever(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{Drain: 300 * time.Millisecond})

	client := greet(t, h.Addr(), 1, 0, "drain-guest")
	if rep := platformCount(t, client, 1); rep.Status != marshal.StatusOK {
		t.Fatalf("reply = %+v", rep)
	}

	h.Shutdown()

	if _, err := client.Recv(); err == nil {
		t.Fatal("recv after shutdown succeeded, want closed")
	} else if errors.Is(err, transport.ErrSevered) {
		t.Fatalf("drain surfaced as sever: %v", err)
	}
	// New connections are refused once draining.
	if ep, err := transport.Dial(h.Addr()); err == nil {
		ep.Close()
		t.Fatal("dial after shutdown succeeded, want refused")
	}
}

// A connection still open when the budget expires is closed, not severed,
// and Shutdown returns promptly after the budget.
func TestHostShutdownBudgetClosesStragglers(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{Drain: 50 * time.Millisecond})

	// Never send a call and never close: the serve loop sits in Recv until
	// the drain budget forces the close.
	client := greet(t, h.Addr(), 2, 0, "straggler")
	waitFor(t, "VM 2 to bind", func() bool { return len(h.VMs()) == 1 })

	start := time.Now()
	h.Shutdown()
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("drain took %v, budget was 50ms", waited)
	}
	if _, err := client.Recv(); err == nil {
		t.Fatal("straggler recv succeeded after forced close")
	} else if errors.Is(err, transport.ErrSevered) {
		t.Fatalf("forced close surfaced as sever: %v", err)
	}
}

// A guest whose connection dies severed — SIGKILL, network partition —
// must not take its byte counters with it. The counters live in the
// server context, which is dropped only when the VM's next incarnation
// binds, so the ctl endpoint still sees them after the connection is gone.
func TestHostSeveredConnStatsSurvive(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	srv := clServer()
	h := startHost(t, srv, host.Config{})

	client := greet(t, h.Addr(), 5, 0, "doomed-guest")
	const calls = 3
	for i := uint64(1); i <= calls; i++ {
		platformCount(t, client, i)
	}

	// SIGKILL the guest: a hard reset, not an orderly close.
	transport.Sever(client)

	waitFor(t, "the serve loop to notice the sever", func() bool { return len(h.VMs()) == 0 })
	snaps := srv.Snapshot()
	if len(snaps) != 1 || snaps[0].VM != 5 || snaps[0].Stats.Calls != calls ||
		snaps[0].Stats.BytesIn == 0 || snaps[0].Stats.BytesOut == 0 {
		t.Fatalf("severed VM's counters not observable: %+v", snaps)
	}

	// The next incarnation starts from a clean context.
	again := greet(t, h.Addr(), 5, 1, "doomed-guest")
	platformCount(t, again, 1)
	if snaps := srv.Snapshot(); len(snaps) != 1 || snaps[0].Stats.Calls != 1 {
		t.Fatalf("reconnect did not start a fresh context: %+v", snaps)
	}
}

// An `avactl drain` round trip against a live host: the drain travels
// over the ctl endpoint, guests observe an orderly end-of-stream
// (ErrClosed, never ErrSevered), and final per-VM counters stay
// scrapeable until the ctl server itself closes.
func TestHostCtlDrainRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{API: "opencl", Drain: 300 * time.Millisecond})

	cs := ctlplane.New(h.CtlConfig())
	ctlAddr, err := cs.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	c := ctlplane.NewClient(ctlAddr)

	client := greet(t, h.Addr(), 3, 0, "ctl-drain-guest")
	platformCount(t, client, 1)

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ident.Service != "avad" || len(snap.Server) != 1 || snap.Server[0].Stats.Calls != 1 {
		t.Fatalf("pre-drain snapshot = %+v", snap)
	}

	if err := c.Drain(); err != nil {
		t.Fatalf("avactl-style drain failed: %v", err)
	}
	h.Wait()

	if _, err := client.Recv(); err == nil {
		t.Fatal("recv after drain succeeded, want closed")
	} else if errors.Is(err, transport.ErrSevered) {
		t.Fatalf("ctl drain surfaced as sever: %v", err)
	}

	// Final counters remain scrapeable after the drain (the ctl server
	// closes only when the process exits).
	snap, err = c.Stats()
	if err != nil {
		t.Fatalf("post-drain scrape failed: %v", err)
	}
	if len(snap.Server) != 1 || snap.Server[0].Stats.Calls != 1 {
		t.Fatalf("post-drain counters lost: %+v", snap.Server)
	}
}

// Kill is a SIGKILL of the whole machine: VM connections and mirror
// replication streams alike die severed, the listeners refuse, and the
// fleet stops listing the host — with the load it announced while alive
// having come from the production sampler.
func TestHostKillSeversEverythingThenDeregisters(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	loc := fleet.NewRegistry(0, nil)
	h := startHost(t, clServer(), host.Config{
		API: "opencl", Locator: loc, ID: "doomed-host",
		AnnounceEvery: 5 * time.Millisecond, Mirror: "127.0.0.1:0",
	})

	vm := greet(t, h.Addr(), 1, 0, "kill-guest")
	platformCount(t, vm, 1)
	mirror := dialHello(t, h.MirrorAddr(),
		transport.EncodeCtl(transport.Ctl{Op: transport.OpMirrorHello, VM: 1, Payload: []byte("kill-guest")}))
	if _, err := mirror.Recv(); err != nil {
		t.Fatalf("mirror hello ack: %v", err)
	}
	waitFor(t, "the announced load to reach 1", func() bool {
		ms, _ := loc.Live("opencl")
		return len(ms) == 1 && ms[0].ID == "doomed-host" && ms[0].Load == 1 && ms[0].Addr == h.Addr()
	})

	h.Kill()

	for name, ep := range map[string]transport.Endpoint{"VM": vm, "mirror": mirror} {
		if _, err := ep.Recv(); !errors.Is(err, transport.ErrSevered) {
			t.Fatalf("%s connection after Kill: %v, want ErrSevered", name, err)
		}
	}
	for _, addr := range []string{h.Addr(), h.MirrorAddr()} {
		if ep, err := transport.Dial(addr); err == nil {
			ep.Close()
			t.Fatalf("dial %s after Kill succeeded, want refused", addr)
		}
	}
	if ms, _ := loc.Live("opencl"); len(ms) != 0 {
		t.Fatalf("killed host still listed: %+v", ms)
	}
	// The deregistration sticks: no late heartbeat resurrects the member.
	time.Sleep(20 * time.Millisecond)
	if ms, _ := loc.Live("opencl"); len(ms) != 0 {
		t.Fatalf("killed host re-announced itself: %+v", ms)
	}
}

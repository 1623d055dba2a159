package host_test

import (
	"errors"
	"testing"
	"time"

	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/transport"
)

func startRegistry(t *testing.T, cfg host.RegistryConfig) *host.Registry {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	r, err := host.StartRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Kill)
	return r
}

// A member announced to one replica reaches its gossip peer without ever
// dialing it, and shows up in the peer's ctl admin table. Shutdown then
// ends client streams in order, not with a sever.
func TestHostRegistryGossipsAndShutsDownInOrder(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	a := startRegistry(t, host.RegistryConfig{})
	b := startRegistry(t, host.RegistryConfig{Peers: []string{a.Addr()}, GossipEvery: 2 * time.Millisecond})

	cb := fleet.DialRegistry(b.Addr())
	defer cb.Close()
	if err := cb.Announce(fleet.Member{ID: "h1", Addr: "10.0.0.1:7272", API: "opencl"}); err != nil {
		t.Fatal(err)
	}
	ca := fleet.DialRegistry(a.Addr())
	defer ca.Close()
	waitFor(t, "gossip to deliver h1 to replica A", func() bool {
		ms, err := ca.Live("opencl")
		return err == nil && len(ms) == 1 && ms[0].ID == "h1"
	})
	if table := a.CtlConfig().Fleet(); len(table) != 1 || table[0].ID != "h1" || !table[0].Live {
		t.Fatalf("replica A admin table = %+v", table)
	}

	raw, err := transport.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	a.Shutdown()
	if _, err := raw.Recv(); err == nil {
		t.Fatal("recv after shutdown succeeded, want closed")
	} else if errors.Is(err, transport.ErrSevered) {
		t.Fatalf("shutdown surfaced as sever: %v", err)
	}
	// The surviving replica keeps serving while its gossip pushes fail.
	if ms, err := cb.Live("opencl"); err != nil || len(ms) != 1 {
		t.Fatalf("replica B after A's shutdown: %v %+v", err, ms)
	}
}

// Kill presents what a crashed registry machine does: established client
// streams die severed and the address refuses new ones.
func TestHostRegistryKillSeversClients(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := startRegistry(t, host.RegistryConfig{})

	raw, err := transport.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	live := transport.Ctl{Op: transport.OpFleetLive, Payload: []byte(`{"api":"opencl"}`)}
	if _, err := transport.RoundTrip(raw, live, transport.OpFleetMembers); err != nil {
		t.Fatalf("registry did not answer: %v", err)
	}

	r.Kill()

	if _, err := raw.Recv(); !errors.Is(err, transport.ErrSevered) {
		t.Fatalf("client stream after Kill: %v, want ErrSevered", err)
	}
	if ep, err := transport.Dial(r.Addr()); err == nil {
		ep.Close()
		t.Fatal("dial after Kill succeeded, want refused")
	}
}

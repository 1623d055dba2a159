// Tests of the registry wire: fleet.Client and fleet.MultiClient against
// the production registry host (internal/host.Registry, what avaregd runs),
// whose Kill is the failure a dead machine actually presents — the accept
// socket closed and every established connection severed.
package fleet_test

import (
	"strings"
	"testing"
	"time"

	"ava/internal/backoff"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
)

// startRegistry runs a registry host on addr ("" picks a loopback port) and
// kills it when the test ends. A restart on an address just vacated can
// lose the rebind race to another process; that skips the test.
func startRegistry(t *testing.T, addr string) *host.Registry {
	t.Helper()
	restart := addr != ""
	if !restart {
		addr = "127.0.0.1:0"
	}
	r, err := host.StartRegistry(host.RegistryConfig{Listen: addr, TTL: time.Minute})
	if err != nil {
		if restart {
			t.Skipf("cannot rebind %s: %v", addr, err)
		}
		t.Fatal(err)
	}
	t.Cleanup(r.Kill)
	return r
}

// liveAt reads one registry's own table, over a connection of its own.
func liveAt(t *testing.T, r *host.Registry, api string) []fleet.Member {
	t.Helper()
	c := shortRetry(fleet.DialRegistry(r.Addr()))
	defer c.Close()
	ms, err := c.Live(api)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// shortRetry keeps dead-replica probes from dragging tests out.
func shortRetry(c *fleet.Client) *fleet.Client {
	c.SetRetry(backoff.Config{Base: time.Millisecond, Cap: 2 * time.Millisecond, Budget: 20 * time.Millisecond, Seed: 7})
	return c
}

// A MultiClient write lands on every live replica, and the merged read is
// ranked exactly as a single registry would rank it.
func TestMultiClientFanoutAndMergedRead(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	hA, hB := startRegistry(t, ""), startRegistry(t, "")

	mc := fleet.NewMultiClient(shortRetry(fleet.DialRegistry(hA.Addr())), shortRetry(fleet.DialRegistry(hB.Addr())))
	defer mc.Close()

	if err := mc.Announce(fleet.Member{ID: "host-1", Addr: "h1:1", API: "opencl", Load: 2}); err != nil {
		t.Fatal(err)
	}
	if err := mc.Announce(fleet.Member{ID: "host-2", Addr: "h2:1", API: "opencl", Load: 1}); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*host.Registry{"A": hA, "B": hB} {
		if ms := liveAt(t, reg, "opencl"); len(ms) != 2 {
			t.Fatalf("replica %s saw %d members, want 2", name, len(ms))
		}
	}
	ms, err := mc.Live("opencl")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != "host-2" || ms[1].ID != "host-1" {
		t.Fatalf("merged Live = %v, want host-2 (lighter) then host-1", ms)
	}

	if err := mc.Deregister("host-2"); err != nil {
		t.Fatal(err)
	}
	if ms, _ := mc.Live("opencl"); len(ms) != 1 || ms[0].ID != "host-1" {
		t.Fatalf("post-deregister Live = %v, want only host-1", ms)
	}
}

// Killing one registry replica is invisible at quorum 1: the surviving
// replica answers reads, and writes still succeed by the any-replica rule.
func TestMultiClientSurvivesOneDeadRegistry(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	hA, hB := startRegistry(t, ""), startRegistry(t, "")

	mc := fleet.NewMultiClient(shortRetry(fleet.DialRegistry(hA.Addr())), shortRetry(fleet.DialRegistry(hB.Addr())))
	defer mc.Close()
	if err := mc.Announce(fleet.Member{ID: "host-1", Addr: "h1:1", API: "opencl"}); err != nil {
		t.Fatal(err)
	}

	hA.Kill() // SIGKILL the first registry machine

	ms, err := mc.Live("opencl")
	if err != nil {
		t.Fatalf("Live with one dead replica: %v", err)
	}
	if len(ms) != 1 || ms[0].ID != "host-1" {
		t.Fatalf("Live = %v, want host-1 from the survivor", ms)
	}
	if err := mc.Announce(fleet.Member{ID: "host-2", Addr: "h2:1", API: "opencl"}); err != nil {
		t.Fatalf("Announce with one dead replica: %v", err)
	}

	// A quorum of 2 is no longer reachable: the merged view must refuse
	// rather than silently degrade below the caller's floor.
	mc.SetQuorum(2)
	if _, err := mc.Live("opencl"); err == nil {
		t.Fatal("quorum 2 with one dead replica should fail")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("quorum failure not named in error: %v", err)
	}
}

// With every replica dead, reads and writes report the failure instead of
// pretending an empty fleet.
func TestMultiClientAllDead(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	hA := startRegistry(t, "")
	hA.Kill()
	mc := fleet.NewMultiClient(shortRetry(fleet.DialRegistry(hA.Addr())))
	defer mc.Close()
	if _, err := mc.Live("opencl"); err == nil {
		t.Fatal("Live against an all-dead registry set should fail")
	}
	if err := mc.Announce(fleet.Member{ID: "x", Addr: "x:1", API: "opencl"}); err == nil {
		t.Fatal("Announce against an all-dead registry set should fail")
	}
}

// The wire client's bounded retry: while the registry is down, a call
// spends the jittered backoff budget and reports unreachable; once the
// registry is back (same address), the next call transparently recovers.
func TestWireClientBoundedRetryWhileRegistryDown(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startRegistry(t, "")
	addr := h.Addr()

	c := shortRetry(fleet.DialRegistry(addr))
	defer c.Close()
	if err := c.Announce(fleet.Member{ID: "host-1", Addr: "h1:1", API: "opencl"}); err != nil {
		t.Fatal(err)
	}

	h.Kill() // registry machine dies
	start := time.Now()
	if _, err := c.Live("opencl"); err == nil {
		t.Fatal("Live against a dead registry should fail after the retry budget")
	} else if !strings.Contains(err.Error(), "unreachable after") {
		t.Fatalf("retry exhaustion not named in error: %v", err)
	}
	if spent := time.Since(start); spent < 5*time.Millisecond {
		t.Fatalf("failed after %v — too fast to have retried under backoff", spent)
	}

	// Restart on the same address: the registry lost its soft state, the
	// client must redial and serve the (now re-announced) table.
	startRegistry(t, addr)
	if err := c.Announce(fleet.Member{ID: "host-1", Addr: "h1:1", API: "opencl"}); err != nil {
		t.Fatalf("Announce after registry restart: %v", err)
	}
	ms, err := c.Live("opencl")
	if err != nil || len(ms) != 1 {
		t.Fatalf("Live after restart = %v, %v; want the re-announced member", ms, err)
	}
}

func TestWireClientRoundTrip(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	c := fleet.DialRegistry(startRegistry(t, "").Addr())
	defer c.Close()
	if err := c.Announce(fleet.Member{ID: "h1", Addr: "1.2.3.4:7272", API: "opencl", Load: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(fleet.Member{ID: "h2", Addr: "1.2.3.5:7272", API: "opencl", Load: 1}); err != nil {
		t.Fatal(err)
	}
	ms, err := c.Live("opencl", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].ID != "h1" || ms[0].Load != 3 {
		t.Fatalf("Live over the wire: %+v", ms)
	}
	if err := c.Deregister("h1"); err != nil {
		t.Fatal(err)
	}
	if ms, _ := c.Live("opencl"); len(ms) != 1 || ms[0].ID != "h2" {
		t.Fatalf("Deregister over the wire: %+v", ms)
	}
}

func TestWireClientRedialsAfterRegistryRestart(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := startRegistry(t, "")
	addr := r.Addr()
	c := fleet.DialRegistry(addr)
	defer c.Close()
	if err := c.Announce(fleet.Member{ID: "h1", Addr: "x", API: "opencl"}); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()

	// Restart the registry on the same address; the client's next request
	// rides a fresh connection.
	startRegistry(t, addr)
	if err := c.Announce(fleet.Member{ID: "h1", Addr: "x", API: "opencl"}); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
}

// TestAnnouncerSurvivesRegistryRestart: an announcer heartbeating over
// the TCP client re-registers its member after the registry process is
// replaced by an empty one on the same address — no operator involved.
func TestAnnouncerSurvivesRegistryRestart(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := startRegistry(t, "")
	addr := r.Addr()
	c := fleet.DialRegistry(addr)
	defer c.Close()
	a := fleet.StartAnnouncer(c, fleet.Member{ID: "h1", Addr: "1.2.3.4:7272", API: "opencl"}, 20*time.Millisecond, nil)
	defer a.Close()
	if ms := liveAt(t, r, "opencl"); len(ms) != 1 {
		t.Fatalf("initial announce missing: %+v", ms)
	}

	// Kill the registry and bring up a fresh, empty one on the same port.
	r.Kill()
	r2 := startRegistry(t, addr)

	deadline := time.Now().Add(2 * time.Second)
	for {
		ms := liveAt(t, r2, "opencl")
		if len(ms) == 1 && ms[0].ID == "h1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("announcer never re-registered with the restarted registry: %+v", ms)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

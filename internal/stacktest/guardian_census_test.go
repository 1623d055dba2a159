package stacktest_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ava"
	"ava/internal/cl"
	"ava/internal/leaktest"
)

// The guardian is the router's south endpoint, not a hop of its own: its
// Send runs on the router's uplink and its Recv on the router's downlink, so
// a guarded VM without a heartbeat runs exactly one goroutine inside the
// guardian — its link's downlink — and a recovery leaves it at one (the new
// link's downlink; the old one has exited). An uplink pump reading a pair
// from the router, or a writer draining a queue onto one, would show here as
// a second or third.
func TestGuardedVMRunsOneGuardianGoroutine(t *testing.T) {
	for _, tr := range []struct {
		name string
		kind ava.TransportKind
	}{
		{"inproc", ava.TransportInProc},
		{"ring", ava.TransportRing},
	} {
		t.Run(tr.name, func(t *testing.T) {
			leaktest.NoGoroutineLeaks(t)
			before := leaktest.Goroutines()
			stack := foStack(foSilo(), ava.WithTransport(tr.kind), ava.WithFailover(foConfig()))
			defer stack.Close()
			lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "census-vm"})
			if err != nil {
				t.Fatal(err)
			}
			c := cl.NewRemote(lib)
			_, q, buf := clSetup(t, c)
			roundTrip := func(b byte) {
				t.Helper()
				pat, got := bytes.Repeat([]byte{b}, 4096), make([]byte, 4096)
				if err := c.EnqueueWrite(q, buf, true, 0, pat); err != nil {
					t.Fatal(err)
				}
				if err := c.EnqueueRead(q, buf, true, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pat) {
					t.Fatalf("readback of %#x differs", b)
				}
			}

			roundTrip(1)
			wantOneGuardianGoroutine(t, before, "before the kill")
			stack.KillServer(1)
			waitRecovered(t, stack.Guardian(1), 1)
			roundTrip(2)
			wantOneGuardianGoroutine(t, before, "after the recovery")
		})
	}
}

// wantOneGuardianGoroutine waits for the goroutines started since before
// that run in (or were started by) a failover.Guardian method to number
// exactly one, and fails with their stacks if they do not within 2 s.
func wantOneGuardianGoroutine(t *testing.T, before map[string]string, when string) {
	t.Helper()
	var in []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		in = in[:0]
		for id, stack := range leaktest.Goroutines() {
			if _, old := before[id]; !old && strings.Contains(stack, "failover.(*Guardian).") {
				in = append(in, stack)
			}
		}
		if len(in) == 1 || time.Now().After(deadline) {
			break
		}
	}
	if len(in) != 1 {
		t.Fatalf("%s: %d goroutines in the guardian, want 1 (its link's downlink):\n\n%s",
			when, len(in), strings.Join(in, "\n\n"))
	}
	if !strings.Contains(in[0], "failover.(*Guardian).downlink") {
		t.Fatalf("%s: the guardian's one goroutine is not its downlink:\n\n%s", when, in[0])
	}
}

package hv

import (
	"testing"

	"ava/internal/leaktest"
)

// A serving-host move must re-fence the VM's endpoint epoch: if the dial
// path that landed on a new host forgot to advance the epoch, frames
// stamped for the old host would be admitted against the new one. The
// router bumps the epoch defensively on a host change whenever it has not
// moved since the previous host was recorded.
func TestSetServingHostReFencesOnHostChange(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	r := NewRouter(hvDesc(), nil, nil)
	if err := r.RegisterVM(VMConfig{ID: 1, Name: "vm1"}); err != nil {
		t.Fatal(err)
	}

	r.SetServingHost(1, "host-a")
	if st, _ := r.Stats(1); st.HostChanges != 0 {
		t.Fatalf("first host recorded as a change: %+v", st)
	}
	if got := r.ServingHost(1); got != "host-a" {
		t.Fatalf("serving host = %q", got)
	}
	e0 := r.Epoch(1)

	// Same host again: nothing moves.
	r.SetServingHost(1, "host-a")
	if st, _ := r.Stats(1); st.HostChanges != 0 {
		t.Fatal("re-recording the same host counted as a change")
	}
	if r.Epoch(1) != e0 {
		t.Fatal("re-recording the same host bumped the epoch")
	}

	// Host change without an epoch advance: the router fences itself.
	r.SetServingHost(1, "host-b")
	if st, _ := r.Stats(1); st.HostChanges != 1 {
		t.Fatalf("host change not counted: %+v", st)
	}
	if r.Epoch(1) != e0+1 {
		t.Fatalf("epoch = %d, want defensive bump to %d", r.Epoch(1), e0+1)
	}

	// Host change after the guardian already advanced the epoch: no
	// double-bump.
	r.SetEpoch(1, r.Epoch(1)+5)
	eAdvanced := r.Epoch(1)
	r.SetServingHost(1, "host-c")
	if r.Epoch(1) != eAdvanced {
		t.Fatalf("epoch = %d, want %d (already fenced by the dial path)", r.Epoch(1), eAdvanced)
	}
	if st, _ := r.Stats(1); st.HostChanges != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

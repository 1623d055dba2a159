package main

import (
	"strings"
	"testing"

	"ava/internal/ctlplane"
	"ava/internal/failover"
)

// `avactl stats` shows a guardian's failed checkpoints and why the last one
// failed: a guardian whose checkpoints all fail never advances its watermark,
// and nothing else on the host says so.
func TestRenderStatsShowsFailedCheckpoints(t *testing.T) {
	out := renderStats(&ctlplane.Snapshot{Guardians: []ctlplane.GuardianSnapshot{
		{VM: 7, Stats: failover.Stats{Checkpoints: 2, FailedCheckpoints: 5}, CheckpointErr: "wire snapshot: refused"},
		{VM: 8, Stats: failover.Stats{Checkpoints: 9}},
	}})
	for _, want := range []string{
		"guardian vm 7: epoch=0 watermark=0 checkpoints=2 (delta 0, last 0B, failed 5) recoveries=0 last checkpoint failure: wire snapshot: refused\n",
		"guardian vm 8: epoch=0 watermark=0 checkpoints=9 (delta 0, last 0B, failed 0) recoveries=0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q:\n%s", want, out)
		}
	}
}

// `avactl stats` shows how many entries a guardian's shadow log holds and
// how many superseded modifies its compactions dropped.
func TestRenderStatsShowsShadowLog(t *testing.T) {
	out := renderStats(&ctlplane.Snapshot{Guardians: []ctlplane.GuardianSnapshot{
		{VM: 7, Stats: failover.Stats{LogEntries: 14, Superseded: 3998}},
	}})
	if want := "guardian vm 7: epoch=0 watermark=0 checkpoints=0 (delta 0, last 0B, failed 0) recoveries=0\n    shadow log: entries=14 superseded=3998\n"; !strings.Contains(out, want) {
		t.Errorf("stats output lacks %q:\n%s", want, out)
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func smokeConfig() runConfig {
	return runConfig{seed: 1, blocks: 2, starts: 1, tiny: true, corruptOp: -1}
}

// TestSmokeTimed runs every workload with two tiny blocks and one cold
// start: every end-to-end value must be there, finite and positive, and no
// op may fail.
func TestSmokeTimed(t *testing.T) {
	for _, w := range workloadTable {
		res, err := runTimed(w, smokeConfig())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.failed, res.attempted, res.firstErr)
		}
		for _, m := range endToEnd {
			v, ok := res.metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s/%s = %v (present: %v), want a finite positive number", w.name, m.Name, v, ok)
			}
		}
		if w.killOps > 0 && (res.kill.kills != kills || res.kill.recoveries != kills) {
			t.Errorf("%s: kill phase made %d kills and saw %d recoveries, want %d of each", w.name, res.kill.kills, res.kill.recoveries, kills)
		}
		res.print(io.Discard)
	}
}

// TestSmokeCorruptedReadBack flips one byte of one read-back: exactly that
// op must be counted as failed.
func TestSmokeCorruptedReadBack(t *testing.T) {
	cfg := smokeConfig()
	w := workloadByName("bulk")
	_, _, warm, _ := w.sized(cfg)
	cfg.corruptOp = warm + 1 // the second op of the first measured block
	res, err := runTimed(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("%d ops failed, want exactly the corrupted one (first failure: %v)", res.failed, res.firstErr)
	}
}

// TestSmokeTraced runs the traced path of every workload in miniature and
// checks the result object and the spans file it leaves.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloadTable {
		path := filepath.Join(t.TempDir(), w.name+".json")
		cfg := smokeConfig()
		cfg.blocks = 1
		res, err := runTraced(w, cfg, path)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d ops failed: %v", w.name, res.failed, res.firstErr)
		}
		for _, m := range perLayer {
			if v, ok := res.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s/%s = %v (present: %v)", w.name, m.Name, v, ok)
			}
		}
		for _, name := range []string{"guest.call_us_per_op", "transport.rtt_us_per_op", "hv.admit_us_per_op", "server.dispatch_us_per_op", "silo.us_per_op", "stack.raw_op_us"} {
			if res.metrics[name] <= 0 {
				t.Errorf("%s/%s = %v, want > 0", w.name, name, res.metrics[name])
			}
		}
		if res.metrics["hv.denied"] != 0 {
			t.Errorf("%s: router denied %v calls", w.name, res.metrics["hv.denied"])
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f spansFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s: spans file: %v", w.name, err)
		}
		if len(f.Spans) == 0 {
			t.Errorf("%s: no spans", w.name)
		}
		checkSpans(t, f.Spans)
	}
}

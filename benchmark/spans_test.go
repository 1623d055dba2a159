package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// checkSpans asserts what a reader of spans.json relies on: ids are unique,
// parents resolve, a child lies inside its parent and shares its op.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byID := map[int]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or used twice", s.ID)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s/%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d names parent %d, which does not exist", s.ID, s.Parent)
			continue
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d [%d, %d] is outside its parent %d [%d, %d]", s.ID, s.StartNS, s.EndNS, p.ID, p.StartNS, p.EndNS)
		}
		if s.Op != p.Op {
			t.Errorf("span %d belongs to op %d, its parent to op %d", s.ID, s.Op, p.Op)
		}
	}
}

func TestSpanWriterAndSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	// Op 0: a 100 us root with a 60 us hv child that itself has a 20 us
	// marshal child; op 1: a root with two server children.
	root0 := tr.add(0, 0, "harness", "replay.hv", at(0), at(100))
	hv := tr.add(root0, 0, "hv", "Router.uplink", at(10), at(70))
	tr.add(hv, 0, "marshal", "DecodeCall", at(20), at(40))
	root1 := tr.add(0, 1, "harness", "replay.server", at(200), at(260))
	tr.add(root1, 1, "server", "Server.ExecuteFrame", at(200), at(225))
	tr.add(root1, 1, "server", "Server.ExecuteFrame", at(230), at(260))
	checkSpans(t, tr.spans)

	self := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"harness": 45 * time.Microsecond, // 100-60 + 60-55
		"hv":      40 * time.Microsecond, // 60-20
		"marshal": 20 * time.Microsecond,
		"server":  55 * time.Microsecond,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], w)
		}
	}

	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := writeSpans(path, "calls", tr.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spansFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("spans file is not well-formed JSON: %v", err)
	}
	if f.Workload != "calls" || f.Unit != "ns" || len(f.Spans) != len(tr.spans) {
		t.Fatalf("spans file holds %q/%q/%d spans", f.Workload, f.Unit, len(f.Spans))
	}
	checkSpans(t, f.Spans)
}

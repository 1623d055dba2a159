package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around a call into a layer's public function. Spans of one op share its
// op number; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was created. It is not safe for concurrent use: replays
// that run on several goroutines record raw timestamps and add their spans
// afterwards.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent, op int, layer, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	childNS := make(map[int]int64, len(spans))
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		// Only the part of the child inside the parent's interval counts.
		start, end := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if end > start {
			childNS[p.ID] += end - start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if self := s.EndNS - s.StartNS - childNS[s.ID]; self > 0 {
			out[s.Layer] += time.Duration(self)
		}
	}
	return out
}

// spansFile is the JSON document a traced run writes.
type spansFile struct {
	Workload string `json:"workload"`
	Unit     string `json:"unit"`
	Spans    []span `json:"spans"`
}

func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spansFile{Workload: workload, Unit: "ns", Spans: spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

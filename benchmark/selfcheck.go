package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runSelfcheck answers "would two sets of runs of the same code agree?" the
// way the driver asks it: two alternating sets of n timed invocations of
// this binary, a different seed each, then per workload/metric the median
// and quartiles of each set. It fails if a pair of medians differs by more
// than the metric's bound, or if a set's interquartile range is wider than
// the bound (a metric that noisy cannot resolve a regression of that size).
func runSelfcheck(todo []*workload, n int, seed int64) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("selfcheck: %v", err)
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
	}
	for i := 0; i < n; i++ {
		for s := range sets {
			for _, w := range todo {
				runSeed := seed + int64(2*i+s)
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d %s seed %d\n", 'A'+s, i+1, n, w.name, runSeed)
				metrics, err := invoke(exe, w.name, runSeed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s: %v\n", w.name, err)
					return 1
				}
				for name, v := range metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
	}

	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload/metric\tA median [q1, q3]\tA iqr/med\tB median [q1, q3]\tB iqr/med\tB vs A\tbound\t")
	for _, w := range todo {
		for _, m := range endToEnd {
			k := key{w.name, m.Name}
			a, b := summarize(sets[0][k]), summarize(sets[1][k])
			delta := (b.med - a.med) / a.med
			verdict := "ok"
			switch {
			case math.Abs(delta) > m.Bound:
				verdict = "MEDIANS DIFFER"
				bad++
			case m.Name != "setup_s" && math.Max(a.spread, b.spread) > m.Bound:
				verdict = "TOO NOISY"
				bad++
			}
			fmt.Fprintf(tw, "%s/%s\t%s\t%.1f%%\t%s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, a, 100*a.spread, b, 100*b.spread, 100*delta, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Printf("selfcheck: %d workload/metric pairs outside their bounds\n", bad)
		return 1
	}
	fmt.Printf("selfcheck: all %d workload/metric pairs agree within their bounds (2 sets of %d runs)\n", len(todo)*len(endToEnd), n)
	return 0
}

// invoke runs one timed invocation and returns its end-to-end metrics.
func invoke(exe, workload string, seed int64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var obj struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &obj); err != nil {
		return nil, fmt.Errorf("last line is not a result object: %w", err)
	}
	if !obj.Correct || obj.Failed > 0 {
		return nil, fmt.Errorf("%d ops failed", obj.Failed)
	}
	metrics := map[string]float64{}
	for name, v := range obj.Metrics {
		metrics[name] = v.Value
	}
	return metrics, nil
}

// summary is a set's median, quartiles and interquartile range over median.
type summary struct{ med, q1, q3, spread float64 }

func (s summary) String() string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.med, s.q1, s.q3) }

// summarize computes quartiles as Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method), which is what the driver uses.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return summary{v, v, v, 0}
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out := summary{med: cut(2), q1: cut(1), q3: cut(3)}
	out.spread = (out.q3 - out.q1) / out.med
	return out
}

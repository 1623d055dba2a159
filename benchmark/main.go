// Command benchmark is the repository's performance benchmark: four long
// closed-loop workloads driven through the stack's public functions, each
// paired block by block with the same ops on the native silo. README.md in
// this directory explains the estimators; BENCHMARK.json at the repository
// root describes the metrics to the driver.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -workload calls      one workload
//	go run ./benchmark -trace spans.json    per-layer metrics by layer replay
//	go run ./benchmark -list                the metric and workload tables
//	go run ./benchmark -selfcheck 5         two alternating sets of 5 runs each
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", 1, "seeds payload bytes and per-op inputs")
		seconds   = flag.Int("seconds", runSeconds, "the driver passes run_seconds; block counts are fixed, so any other value is refused")
		trace     = flag.String("trace", "0", "0 = end-to-end metrics; 1 or a file name = traced run, spans written to that file")
		list      = flag.Bool("list", false, "print the metric and workload tables and exit")
		selfcheck = flag.Int("selfcheck", 0, "run two alternating sets of N timed invocations and compare their medians")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *list {
		printList(os.Stdout)
		return
	}
	if *seconds != runSeconds {
		// Published numbers always come from the fixed block counts.
		fatalf("-seconds %d: the measurement protocol is fixed and sized for %d s (BENCHMARK.json run_seconds)", *seconds, runSeconds)
	}
	var todo []*workload
	if *name == "" {
		todo = workloadTable
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatalf("unknown workload %q (see -list)", *name)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(todo, *selfcheck, *seed))
	}

	cfg := runConfig{seed: *seed, starts: coldStarts, corruptOp: -1}
	printEnvironment(os.Stdout)
	failed := false
	for _, w := range todo {
		var (
			res *result
			err error
		)
		if *trace == "0" || *trace == "" {
			res, err = runTimed(w, cfg)
		} else {
			res, err = runTraced(w, cfg, spansPath(*trace, w.name, len(todo) > 1))
		}
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		res.print(os.Stdout)
		failed = failed || res.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

// spansPath names the spans file of one traced workload. "-trace 1" is how
// the driver asks for a traced run; its spans land in the build directory.
func spansPath(arg, workload string, many bool) string {
	if arg == "1" {
		return filepath.Join(".bench_build", "spans-"+workload+".json")
	}
	if many {
		ext := filepath.Ext(arg)
		return arg[:len(arg)-len(ext)] + "-" + workload + ext
	}
	return arg
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

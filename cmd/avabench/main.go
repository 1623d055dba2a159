// Command avabench regenerates the paper's evaluation tables and figures
// against the simulated accelerators. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	avabench                 # run everything
//	avabench -exp fig5       # one experiment: fig5, async, fullvirt,
//	                         # sharing, swap, migrate, effort, transport,
//	                         # breakdown, pipeline, overload, failover,
//	                         # crosshost, copycost
//	avabench -scale 2 -reps 5
//	avabench -json out/     # also write machine-readable BENCH_<exp>.json
//	avabench -exp failover -ctl 127.0.0.1:7273   # scrape the run live
//
// With -ctl, avabench serves the HTTP control endpoint (internal/ctlplane)
// over whichever stack the current experiment is running, so
// `avactl stats -host <addr>` mid-run reads live router/server/guest
// counters and — during failover experiments — guardian epoch, watermark
// and delta-checkpoint counts. `avactl checkpoint <vm>` forces a
// checkpoint; `avactl migrate <vm> [target]` live-migrates a placed
// VM (ava.Stack.MigrateVM) to the named fleet member or the policy's pick.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	"ava"
	"ava/internal/bench"
	"ava/internal/ctlplane"
	"ava/internal/sched"
	"ava/internal/server"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (default: all)")
		scale    = flag.Int("scale", 1, "workload problem-size multiplier")
		reps     = flag.Int("reps", 3, "repetitions per measurement (minimum reported)")
		jsonDir  = flag.String("json", "", "directory to write BENCH_<exp>.json files into (default: tables only)")
		ctl      = flag.String("ctl", "", "HTTP control/metrics endpoint address (empty = disabled)")
		ctlToken = flag.String("ctl-token", "", "shared token required on ctl POSTs (empty = open)")
	)
	flag.Parse()
	opts := bench.Options{Scale: *scale, Reps: *reps}

	if *ctl != "" {
		cs := ctlplane.New(benchCtlConfig(*ctlToken))
		addr, err := cs.Start(*ctl)
		if err != nil {
			fatal(err)
		}
		defer cs.Close()
		log.Printf("avabench: ctl listening on %s", addr)
	}

	names := bench.Experiments()
	if *exp != "" {
		names = []string{*exp}
	}
	for _, name := range names {
		tbl, err := bench.ByName(name, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tbl)
		if *jsonDir != "" {
			path, err := bench.WriteJSON(*jsonDir, name, tbl)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "avabench: wrote %s\n", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avabench:", err)
	os.Exit(1)
}

// benchCtlConfig builds a control-endpoint config whose sources follow
// the experiment currently running: bench.SetStackObserver hands us each
// stack as an experiment assembles it, and every source func re-reads
// the current pointer, so a scraper polling /stats mid-run sees the live
// stack of the moment (and empty sections between experiments).
func benchCtlConfig(token string) ctlplane.Config {
	var (
		mu  sync.Mutex
		cur *ava.Stack
	)
	bench.SetStackObserver(func(s *ava.Stack) {
		mu.Lock()
		cur = s
		mu.Unlock()
	})
	return ctlConfig(token, func() *ava.Stack {
		mu.Lock()
		defer mu.Unlock()
		return cur
	})
}

// ctlConfig builds the control-endpoint config over whatever stack current
// returns at the moment of each request (nil: no experiment is running).
func ctlConfig(token string, current func() *ava.Stack) ctlplane.Config {
	return ctlplane.Config{
		Ident: ctlplane.Ident{Service: "avabench"},
		Router: func() *ctlplane.RouterInfo {
			s := current()
			if s == nil {
				return nil
			}
			return ctlplane.RouterSource(s.Router)()
		},
		Server: func() []server.VMSnapshot {
			s := current()
			if s == nil {
				return nil
			}
			return s.Server.Snapshot()
		},
		Guests: func() []ctlplane.GuestSnapshot {
			s := current()
			if s == nil {
				return nil
			}
			var out []ctlplane.GuestSnapshot
			for _, id := range s.VMs() {
				if lib := s.GuestLib(id); lib != nil {
					out = append(out, ctlplane.GuestSnapshot{VM: id, Stats: lib.Stats()})
				}
			}
			return out
		},
		Guardians: func() []ctlplane.GuardianSnapshot {
			s := current()
			if s == nil {
				return nil
			}
			var out []ctlplane.GuardianSnapshot
			for _, id := range s.VMs() {
				if g := s.Guardian(id); g != nil {
					out = append(out, ctlplane.GuardianSource(id, g))
				}
			}
			return out
		},
		Checkpoint: func(vm uint32) error {
			s := current()
			if s == nil {
				return fmt.Errorf("no experiment is running")
			}
			g := s.Guardian(vm)
			if g == nil {
				return fmt.Errorf("VM %d has no failover guardian", vm)
			}
			return g.CheckpointNow()
		},
		Migrate: func(vm uint32, target string) error {
			s := current()
			if s == nil {
				return fmt.Errorf("no experiment is running")
			}
			return s.MigrateVM(vm, target)
		},
		Sched: func() []sched.Decision {
			s := current()
			if s == nil {
				return nil
			}
			return s.SchedDecisions()
		},
		Rebalance: func() (int, error) {
			s := current()
			if s == nil {
				return 0, fmt.Errorf("no experiment is running")
			}
			r := s.Rebalancer()
			if r == nil {
				return 0, fmt.Errorf("no rebalancer is configured")
			}
			return r.Kick(), nil
		},
		RebalanceStats: func() sched.Stats {
			s := current()
			if s == nil {
				return sched.Stats{}
			}
			if r := s.Rebalancer(); r != nil {
				return r.Stats()
			}
			return sched.Stats{}
		},
		Token: token,
	}
}

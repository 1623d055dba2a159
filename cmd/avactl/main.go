// Command avactl inspects and controls a live AvA process over its HTTP
// control endpoint (internal/ctlplane, avad's -ctl flag).
//
// Usage:
//
//	avactl -host 127.0.0.1:7273 stats
//	avactl -host 127.0.0.1:7273 vms
//	avactl -host 127.0.0.1:7273 drain
//	avactl -host 127.0.0.1:7273 checkpoint 1
//	avactl -host 127.0.0.1:7273 migrate 1 gpu-host-b
//
// `stats` prints every section the process serves (router policy
// counters, live server byte/queue counters, guardian checkpoint state,
// fleet membership); `vms` prints the compact per-VM join. -json emits
// the raw endpoint payload for scripts. Control errors come back in the
// stack's categorized taxonomy and exit non-zero.
//
// Control (POST) commands against a daemon started with -ctl-token need
// the matching token, via -token or the AVACTL_TOKEN environment
// variable. Read-only commands never need one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"ava/internal/ctlplane"
)

func main() {
	var (
		host    = flag.String("host", "127.0.0.1:7273", "control endpoint address (avad -ctl)")
		asJSON  = flag.Bool("json", false, "emit raw JSON instead of tables")
		timeout = flag.Duration("timeout", 10*time.Second, "request timeout")
		token   = flag.String("token", os.Getenv("AVACTL_TOKEN"), "shared token for control POSTs (default $AVACTL_TOKEN)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	c := ctlplane.NewClient(*host)
	c.SetToken(*token)
	_ = timeout // the client's default timeout covers interactive use

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "health":
		if err = c.Health(); err == nil {
			fmt.Println("ok")
		}
	case "stats":
		err = cmdStats(c, *asJSON)
	case "vms":
		err = cmdVMs(c, *asJSON)
	case "drain":
		if err = c.Drain(); err == nil {
			fmt.Println("draining")
		}
	case "checkpoint":
		var vm uint64
		if vm, err = vmArg(); err == nil {
			if err = c.Checkpoint(uint32(vm)); err == nil {
				fmt.Printf("checkpointed VM %d\n", vm)
			}
		}
	case "migrate":
		var vm uint64
		if vm, err = vmArg(); err == nil {
			target := flag.Arg(2)
			if err = c.Migrate(uint32(vm), target); err == nil {
				if target == "" {
					target = "lightest live peer"
				}
				fmt.Printf("migrating VM %d to %s\n", vm, target)
			}
		}
	case "sched":
		err = cmdSched(c, *asJSON)
	case "mirror":
		err = cmdMirror(c, *asJSON)
	case "rebalance":
		var n int
		if n, err = c.Rebalance(); err == nil {
			fmt.Printf("rebalance pass started %d migration(s)\n", n)
		}
	case "metrics":
		var body string
		if body, err = c.Metrics(); err == nil {
			fmt.Print(body)
		}
	default:
		fmt.Fprintf(os.Stderr, "avactl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		report(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: avactl [-host addr] [-json] <command> [args]

commands:
  stats                  full telemetry snapshot
  vms                    compact per-VM table (router + server counters)
  drain                  begin a graceful drain of the process
  checkpoint <vm>        force a checkpoint of one VM now
  migrate <vm> [target]  move one VM (no target = lightest live peer)
  sched                  scheduling decision log (placements, migrations)
  mirror                 per-VM replication standing of a mirror host
  rebalance              force one rebalance evaluation pass now
  metrics                Prometheus exposition dump (GET /metrics)
  health                 liveness probe

flags:
`)
	flag.PrintDefaults()
}

func vmArg() (uint64, error) {
	if flag.NArg() < 2 {
		return 0, errors.New("avactl: missing <vm> argument")
	}
	vm, err := strconv.ParseUint(flag.Arg(1), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("avactl: bad vm %q: %v", flag.Arg(1), err)
	}
	return vm, nil
}

// report prints an error with its taxonomy, when it crossed the ctl
// boundary carrying one, and exits non-zero.
func report(err error) {
	var re *ctlplane.RemoteError
	if errors.As(err, &re) && re.Code != "" {
		fmt.Fprintf(os.Stderr, "avactl: %s (category=%s code=%s status=%s)\n",
			re.Msg, re.Category, re.Code, re.Status)
	} else {
		fmt.Fprintf(os.Stderr, "avactl: %v\n", err)
	}
	os.Exit(1)
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdStats(c *ctlplane.Client, asJSON bool) error {
	snap, err := c.Stats()
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(snap)
	}
	fmt.Printf("%s", renderStats(snap))
	return nil
}

func renderStats(snap *ctlplane.Snapshot) string {
	out := fmt.Sprintf("service %s", snap.Ident.Service)
	if snap.Ident.ID != "" {
		out += " id " + snap.Ident.ID
	}
	if snap.Ident.API != "" {
		out += " api " + snap.Ident.API
	}
	if snap.Ident.Addr != "" {
		out += " addr " + snap.Ident.Addr
	}
	out += "\n"
	if r := snap.Router; r != nil {
		out += fmt.Sprintf("router: recent stall %v, shed threshold %v\n", r.RecentStall, r.ShedStallThreshold)
		for _, vm := range r.VMs {
			out += fmt.Sprintf("  vm %d (%s): forwarded=%d denied=%d shed=%d deadline-denied=%d stall=%v host=%q epoch=%d\n",
				vm.ID, vm.Name, vm.Stats.Forwarded, vm.Stats.Denied, vm.Stats.ShedDenied,
				vm.Stats.DeadlineDenied, vm.Stats.Stall, vm.Host, vm.Epoch)
			out += fmt.Sprintf("    band stall [0..3]: %v %v %v %v\n",
				vm.Stats.BandStall[0], vm.Stats.BandStall[1], vm.Stats.BandStall[2], vm.Stats.BandStall[3])
		}
	}
	for _, vm := range snap.Server {
		out += fmt.Sprintf("server vm %d (%s): calls=%d errors=%d queue=%d copied=%d in=%d out=%d exec=%v run=%v\n",
			vm.VM, vm.Name, vm.Stats.Calls, vm.Stats.Errors, vm.QueueDepth,
			vm.Stats.BytesCopied, vm.Stats.BytesIn, vm.Stats.BytesOut, vm.Stats.ExecTime, vm.Stats.RunTime)
	}
	for _, g := range snap.Guests {
		out += fmt.Sprintf("guest vm %d: calls=%d copied=%d borrowed=%d overload-denied=%d\n",
			g.VM, g.Stats.Calls, g.Stats.BytesCopied, g.Stats.BytesBorrowed, g.Stats.OverloadDenied)
	}
	for _, g := range snap.Guardians {
		out += fmt.Sprintf("guardian vm %d: epoch=%d watermark=%d checkpoints=%d (delta %d, last %dB, failed %d) recoveries=%d",
			g.VM, g.Epoch, g.Watermark, g.Stats.Checkpoints, g.Stats.DeltaCheckpoints,
			g.Stats.LastCkptBytes, g.Stats.FailedCheckpoints, g.Stats.Recoveries)
		if g.CheckpointErr != "" {
			out += " last checkpoint failure: " + g.CheckpointErr
		}
		if g.Dead != "" {
			out += " DEAD: " + g.Dead
		}
		out += fmt.Sprintf("\n    shadow log: entries=%d superseded=%d\n", g.Stats.LogEntries, g.Stats.Superseded)
	}
	for _, m := range snap.Fleet {
		live := "live"
		if !m.Live {
			live = "expired"
		}
		out += fmt.Sprintf("fleet %s (%s): addr=%s load=%d %s\n", m.ID, m.API, m.Addr, m.Load, live)
	}
	return out
}

func cmdSched(c *ctlplane.Client, asJSON bool) error {
	ds, err := c.Sched()
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(ds)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "SEQ\tTIME\tKIND\tVM\tFROM\tTO\tPOLICY\tREASON")
	for _, d := range ds {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			d.Seq, d.Time.Format(time.RFC3339), d.Kind, d.VM, d.From, d.To, d.Policy, d.Reason)
	}
	return w.Flush()
}

func cmdMirror(c *ctlplane.Client, asJSON bool) error {
	ms, err := c.Mirror()
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(ms)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "VM\tNAME\tENTRIES\tWATERMARK\tEPOCH\tOBJECTS")
	for _, m := range ms {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n",
			m.VM, m.Name, m.Entries, m.W, m.Epoch, m.Objects)
	}
	return w.Flush()
}

func cmdVMs(c *ctlplane.Client, asJSON bool) error {
	rows, err := c.VMs()
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(rows)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "VM\tNAME\tHOST\tEPOCH\tFWD\tDENIED\tSHED\tCALLS\tERRS\tQUEUE\tCOPIED\tEXEC\tRUN")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			r.ID, r.Name, r.Host, r.Epoch, r.Forwarded, r.Denied, r.ShedDenied,
			r.Calls, r.Errors, r.QueueDepth, r.BytesCopied, r.ExecTime, r.RunTime)
	}
	return w.Flush()
}

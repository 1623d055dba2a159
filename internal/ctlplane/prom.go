package ctlplane

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"ava/internal/fleet"
)

// handleMetrics renders the Snapshot in the Prometheus text exposition
// format (version 0.0.4), so the same telemetry the JSON endpoints serve
// is scrapeable by any Prometheus-compatible collector without an
// exporter sidecar. Only the sections the process configured appear.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	writeProm(&b, s.cfg.snapshot(), &s.cfg)
	w.Write([]byte(b.String()))
}

// promEsc escapes a label value per the exposition format.
func promEsc(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promMetric accumulates one metric family: header once, samples after.
type promMetric struct {
	b      *strings.Builder
	name   string
	headed bool
	typ    string
	help   string
}

func metric(b *strings.Builder, name, typ, help string) *promMetric {
	return &promMetric{b: b, name: name, typ: typ, help: help}
}

func (m *promMetric) sample(labels string, v float64) {
	if !m.headed {
		fmt.Fprintf(m.b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		m.headed = true
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers exact (counters are < 2^53 in any realistic run)
	// and floats compact.
	fmt.Fprintf(m.b, "%s%s %g\n", m.name, labels, v)
}

func vmLabel(id uint32, name string) string {
	if name == "" {
		return fmt.Sprintf(`vm="%d"`, id)
	}
	return fmt.Sprintf(`vm="%d",name="%s"`, id, promEsc(name))
}

func writeProm(b *strings.Builder, snap *Snapshot, cfg *Config) {
	ident := fmt.Sprintf(`service="%s"`, promEsc(snap.Ident.Service))
	if snap.Ident.ID != "" {
		ident += fmt.Sprintf(`,id="%s"`, promEsc(snap.Ident.ID))
	}
	metric(b, "ava_up", "gauge", "Process is serving its control endpoint.").sample(ident, 1)

	if rt := snap.Router; rt != nil {
		metric(b, "ava_router_recent_stall_seconds", "gauge",
			"EWMA of admitted calls' rate-limit and scheduling stall.").
			sample("", rt.RecentStall.Seconds())
		fwd := metric(b, "ava_router_forwarded_calls_total", "counter", "Calls forwarded per VM.")
		den := metric(b, "ava_router_denied_calls_total", "counter", "Calls denied by policy per VM.")
		shed := metric(b, "ava_router_shed_calls_total", "counter", "Calls shed under overload per VM.")
		epoch := metric(b, "ava_router_epoch", "gauge", "Endpoint epoch per VM (bumps once per recovery).")
		for _, vm := range rt.VMs {
			l := vmLabel(vm.ID, vm.Name)
			fwd.sample(l, float64(vm.Stats.Forwarded))
			den.sample(l, float64(vm.Stats.Denied))
			shed.sample(l, float64(vm.Stats.ShedDenied))
			epoch.sample(l, float64(vm.Epoch))
		}
	}

	if len(snap.Server) > 0 {
		calls := metric(b, "ava_server_calls_total", "counter", "Calls executed per VM.")
		errs := metric(b, "ava_server_errors_total", "counter", "Calls failed per VM.")
		qd := metric(b, "ava_server_queue_depth", "gauge", "In-flight calls per VM.")
		copied := metric(b, "ava_server_bytes_copied_total", "counter", "Buffer payload bytes moved by copy per VM.")
		exec := metric(b, "ava_server_exec_seconds_total", "counter", "Handler execution time of the calls timed on their own per VM.")
		runs := metric(b, "ava_server_run_seconds_total", "counter", "Execution time of the runs of deadline-free async calls per VM.")
		for _, vm := range snap.Server {
			l := vmLabel(vm.VM, vm.Name)
			calls.sample(l, float64(vm.Stats.Calls))
			errs.sample(l, float64(vm.Stats.Errors))
			qd.sample(l, float64(vm.QueueDepth))
			copied.sample(l, float64(vm.Stats.BytesCopied))
			exec.sample(l, vm.Stats.ExecTime.Seconds())
			runs.sample(l, vm.Stats.RunTime.Seconds())
		}
	}

	if len(snap.Guardians) > 0 {
		rec := metric(b, "ava_guardian_recoveries_total", "counter", "Server failures recovered per VM.")
		ckpt := metric(b, "ava_guardian_checkpoints_total", "counter", "Quiesced checkpoints cut per VM.")
		ckptFail := metric(b, "ava_guardian_checkpoints_failed_total", "counter", "Checkpoints begun and not committed per VM.")
		wm := metric(b, "ava_guardian_watermark", "gauge", "Checkpoint watermark per VM.")
		logN := metric(b, "ava_guardian_log_entries", "gauge", "Shadow-log entries held per VM.")
		superseded := metric(b, "ava_guardian_superseded_total", "counter", "Keyed modifies compaction dropped as superseded per VM.")
		dead := metric(b, "ava_guardian_dead", "gauge", "1 when the guardian has given up.")
		for _, g := range snap.Guardians {
			l := fmt.Sprintf(`vm="%d"`, g.VM)
			rec.sample(l, float64(g.Stats.Recoveries))
			ckpt.sample(l, float64(g.Stats.Checkpoints))
			ckptFail.sample(l, float64(g.Stats.FailedCheckpoints))
			wm.sample(l, float64(g.Watermark))
			logN.sample(l, float64(g.Stats.LogEntries))
			superseded.sample(l, float64(g.Stats.Superseded))
			if g.Dead != "" {
				dead.sample(l, 1)
			} else {
				dead.sample(l, 0)
			}
		}
	}

	if len(snap.Fleet) > 0 {
		live := metric(b, "ava_fleet_member_live", "gauge", "1 when the member's TTL had not expired.")
		load := metric(b, "ava_fleet_member_load", "gauge", "Announced load per member.")
		qd := metric(b, "ava_fleet_member_queue_depth", "gauge", "Announced queue depth per member.")
		bif := metric(b, "ava_fleet_member_bytes_in_flight", "gauge", "Announced bytes in flight per member.")
		// Deterministic order: the registry map iterates randomly.
		fs := append([]fleet.Status(nil), snap.Fleet...)
		sort.Slice(fs, func(i, j int) bool { return fs[i].ID < fs[j].ID })
		for _, m := range fs {
			l := fmt.Sprintf(`member="%s",api="%s"`, promEsc(m.ID), promEsc(m.API))
			if m.Live {
				live.sample(l, 1)
			} else {
				live.sample(l, 0)
			}
			load.sample(l, float64(m.Load))
			qd.sample(l, float64(m.QueueDepth))
			bif.sample(l, float64(m.BytesInFlight))
		}
	}

	if cfg.RebalanceStats != nil {
		st := cfg.RebalanceStats()
		metric(b, "ava_rebalancer_ticks_total", "counter", "Rebalance evaluations run.").sample("", float64(st.Ticks))
		metric(b, "ava_rebalancer_skew_ticks_total", "counter", "Evaluations that saw a host over the skew ratio.").sample("", float64(st.SkewTicks))
		metric(b, "ava_rebalancer_migrations_total", "counter", "Live migrations started.").sample("", float64(st.Migrations))
		metric(b, "ava_rebalancer_failed_total", "counter", "Migrations that failed to start.").sample("", float64(st.Failed))
		metric(b, "ava_rebalancer_suppressed_total", "counter", "Skewed evaluations suppressed by anti-flap machinery.").sample("", float64(st.Suppressed))
	}
	if cfg.Sched != nil {
		kinds := make(map[string]int)
		for _, d := range cfg.Sched() {
			kinds[d.Kind]++
		}
		dec := metric(b, "ava_sched_decisions", "gauge", "Scheduling decisions retained in the log, by kind.")
		for _, k := range []string{"place", "failover", "rebalance", "manual"} {
			if n, ok := kinds[k]; ok {
				dec.sample(fmt.Sprintf(`kind="%s"`, k), float64(n))
			}
		}
	}
}

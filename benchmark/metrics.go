package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// The metric and workload tables are declared once, here. `-list` prints
// them, the result printer walks them, and TestBenchmarkJSONAgrees fails if
// the root BENCHMARK.json says anything different.

// metric describes one reported number. Every timing is lower-is-better;
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression (per-layer metrics are
// diagnostics and carry none).
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Help   string
}

// runSeconds is BENCHMARK.json's run_seconds: the nominal length of the
// measured phase, which the fixed block counts in the workload table are
// sized for. The driver passes it as -seconds; no other value is accepted.
const runSeconds = 15

var workloads = []struct{ Name, Why string }{
	{"calls", "4 async clSetKernelArg + 1 clFinish per op on the default in-proc stack: no payload, no kernel, so per-call cost in guest, marshal, transport, router and server is all there is"},
	{"bulk", "blocking 256 KiB write then read over the disaggregated wiring (in-proc, router, TCP loopback): bytes not calls, so copies, framebuf pooling and writev dominate"},
	{"fig5", "one pass over nine Rodinia programs plus Inception, AvA against native: the paper's Figure 5; silo and devsim do most of the work and remoting little"},
	{"serve", "2 VMs issuing inference-style requests over shm rings with fair scheduling, token buckets, shedding and a failover guardian, then 5 server kills: policy and recovery paths"},
}

// endToEnd metrics are reported by every workload with tracing off.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "median of 9 cold starts (compile spec, bind, assemble, attach, create objects, fixed warm-up), calibrated"},
	{"relative_time", "ratio", "lower", 0.15, "median over blocks of AvA block time / native block time per op, both calibrated (Figure 5 yardstick)"},
	{"op_us", "us", "lower", 0.15, "median over blocks of block wall time / ops per client, calibrated"},
	{"cpu_us_per_op", "us", "lower", 0.20, "median over blocks of process user+sys CPU / ops of all clients, calibrated"},
	{"allocs_per_op", "count", "lower", 0.01, "heap allocations / ops over all AvA blocks"},
	{"alloc_bytes_per_op", "B", "lower", 0.02, "heap bytes allocated / ops over all AvA blocks"},
}

// perLayer metrics are reported by the traced run. Layers are this repo's
// packages; a metric a workload does not exercise reads 0 there.
var perLayer = []metric{
	{Name: "cava.compile_spec_us", Unit: "us", Help: "ava.CompileSpec of the workload's spec, median of 21"},
	{Name: "stack.attach_us", Unit: "us", Help: "assemble + attach + first sync call, median of 101"},

	{Name: "guest.call_us_per_op", Unit: "us", Help: "the whole op against an echo endpoint: its Lib.Calls, and the workload's own code between them"},
	{Name: "guest.allocs_per_op", Unit: "count", Help: "heap allocations in the guest replay"},
	{Name: "guest.frames_per_op", Unit: "count", Help: "Lib.Stats Batches delta"},
	{Name: "guest.bytes_copied_per_op", Unit: "B", Help: "Lib.Stats BytesCopied delta"},
	{Name: "guest.bytes_borrowed_per_op", Unit: "B", Help: "Lib.Stats BytesBorrowed delta"},
	{Name: "guest.stage_enc_admit_us", Unit: "us", Help: "stamped encode->admit per staged sync call"},
	{Name: "guest.stage_admit_disp_us", Unit: "us", Help: "stamped admit->dispatch per staged sync call"},
	{Name: "guest.stage_exec_us", Unit: "us", Help: "stamped dispatch->done per staged sync call"},
	{Name: "guest.stage_reply_us", Unit: "us", Help: "stamped done->reply decoded per staged sync call"},

	{Name: "marshal.encode_us_per_op", Unit: "us", Help: "AppendCallSegments + AppendReply on the op's captured frames"},
	{Name: "marshal.decode_us_per_op", Unit: "us", Help: "DecodeBatch + DecodeCall + DecodeReply on the op's captured frames"},
	{Name: "marshal.allocs_per_op", Unit: "count", Help: "heap allocations in the marshal replay"},
	{Name: "marshal.wire_bytes_per_op", Unit: "B", Help: "call + reply frame bytes per op"},

	{Name: "transport.rtt_us_per_op", Unit: "us", Help: "the op's frames over each hop of the workload's transport kinds with an echo peer"},
	{Name: "transport.allocs_per_op", Unit: "count", Help: "heap allocations in the transport replay"},

	{Name: "hv.admit_us_per_op", Unit: "us", Help: "the op's frames through Router.Attach between two harness endpoints"},
	{Name: "hv.allocs_per_op", Unit: "count", Help: "heap allocations in the router replay"},
	{Name: "hv.stall_us_per_op", Unit: "us", Help: "Router.Stats Stall delta in the run"},
	{Name: "hv.denied", Unit: "count", Help: "Router.Stats Denied in the run; must stay 0"},

	{Name: "server.dispatch_us_per_op", Unit: "us", Help: "Server.ExecuteFrame on the op's calls with no-op handlers"},
	{Name: "server.allocs_per_op", Unit: "count", Help: "heap allocations in the server replay"},
	{Name: "server.exec_us_per_op", Unit: "us", Help: "Context.Stats ExecTime delta in the run"},
	{Name: "server.queue_us_per_op", Unit: "us", Help: "Context.Stats AdmitToDispatch delta in the run"},

	{Name: "silo.us_per_op", Unit: "us", Help: "native block time per op, median over blocks"},
	{Name: "silo.kernel_us_per_op", Unit: "us", Help: "devsim KernelTime delta in the run"},
	{Name: "silo.dma_us_per_op", Unit: "us", Help: "devsim TransferTime delta in the run"},

	{Name: "failover.guardian_tax_us_per_op", Unit: "us", Help: "serve op time with guardian minus without"},
	{Name: "failover.mirror_tax_us_per_op", Unit: "us", Help: "serve op time with an in-memory mirror minus without"},
	{Name: "failover.checkpoints", Unit: "count", Help: "Guardian.Stats Checkpoints, all VMs"},
	{Name: "failover.ckpt_bytes", Unit: "B", Help: "Guardian.Stats LastCkptBytes of the killed VM"},
	{Name: "failover.recovery_pause_us", Unit: "us", Help: "Guardian.Stats LastRecoveryPause, median over the kills"},
	{Name: "failover.resubmitted_per_kill", Unit: "count", Help: "Lib.Stats ResubmittedCalls / kills"},

	{Name: "stack.raw_op_us", Unit: "us", Help: "median over blocks of uncalibrated op time"},
	{Name: "stack.op_p50_us", Unit: "us", Help: "per-op time, median of the traced ops"},
	{Name: "stack.op_p90_us", Unit: "us", Help: "per-op time, 90th percentile"},
	{Name: "stack.op_p99_us", Unit: "us", Help: "per-op time, 99th percentile"},
	{Name: "stack.layer_coverage", Unit: "ratio", Help: "guest + transport + hv + server dispatch + server exec per-op times / op_us, all calibrated"},
	{Name: "stack.unattributed_us_per_op", Unit: "us", Help: "op_us minus the layer sum: goroutine hand-offs between layers, GC, scheduling tails"},
	{Name: "stack.gc_cycles", Unit: "count", Help: "GC cycles during the AvA blocks"},
	{Name: "stack.peak_rss_mb", Unit: "MB", Help: "getrusage max RSS"},

	{Name: "harness.cal_us", Unit: "us", Help: "calibration loop, median over blocks"},
	{Name: "harness.native_us_per_op", Unit: "us", Help: "native block time per op, calibrated"},
	{Name: "harness.warmup_s", Unit: "s", Help: "warm-up pass of the cold start"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Help: "per-op timestamping: traced vs untraced op time"},
}

func init() {
	for i := range perLayer {
		perLayer[i].Better = "lower"
	}
	// More useful work per op, or more of the op explained, is better.
	for _, name := range []string{"guest.bytes_borrowed_per_op", "stack.layer_coverage"} {
		metricByName(perLayer, name).Better = "higher"
	}
}

func metricByName(table []metric, name string) *metric {
	for i := range table {
		if table[i].Name == name {
			return &table[i]
		}
	}
	panic("benchmark: no metric " + name)
}

// printList writes the tables `-list` shows.
func printList(out io.Writer) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, w := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", w.Name, w.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END\tUNIT\tBETTER\tBOUND\tDEFINITION")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Help)
	}
	fmt.Fprintln(tw, "\nPER-LAYER\tUNIT\tBETTER\t\tDEFINITION")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t%s\n", m.Name, m.Unit, m.Better, m.Help)
	}
	tw.Flush()
}

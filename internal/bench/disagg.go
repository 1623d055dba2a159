package bench

import (
	"fmt"
	"slices"
	"strings"

	"ava"
	"ava/internal/bytesconv"
	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/mvnc"
	"ava/internal/qat"
	"ava/internal/server"
	"ava/internal/swap"
)

// clStackSwap assembles an OpenCL stack with a swap manager installed and
// returns both.
func clStackSwap(silo *cl.Silo, opts ...ava.Option) (*ava.Stack, *swap.Manager) {
	desc := cl.Descriptor()
	reg := server.NewRegistry(desc)
	cl.BindServer(reg, silo)
	mgr := swap.NewManager(silo)
	mgr.Install(reg)
	return ava.NewStack(desc, reg, opts...), mgr
}

// f32bytes aliases the conversion used throughout the workloads.
func f32bytes(xs []float32) []byte { return bytesconv.Float32Bytes(xs) }

// Effort reproduces the paper's developer-effort claim (§1/§5: a single
// developer virtualizes an API in days; hand-built systems took 25k LoC
// and person-years). It reports, for each shipped API, the specification
// size against the volume of stack code CAvA generates from it.
func Effort() (*Table, error) {
	t := &Table{
		ID:     "E7/Effort",
		Title:  "Developer effort: specification vs generated stack",
		Header: []string{"api", "functions", "spec-lines", "generated-guest", "generated-server", "leverage"},
	}
	cases := []struct {
		name string
		spec string
	}{
		{"opencl (39 fns)", cl.Spec},
		{"ncsdk/mvnc", mvnc.Spec},
		{"quickassist/qat", qat.Spec},
	}
	for _, cse := range cases {
		desc := cava.MustCompile(cse.spec)
		_, st, err := cava.Generate(desc, cse.spec, cava.GenOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cse.name, err)
		}
		t.Add(cse.name, fmt.Sprint(st.Functions), fmt.Sprint(st.SpecLines),
			fmt.Sprint(st.GeneratedLines-st.ServerLines), fmt.Sprint(st.ServerLines),
			fmt.Sprintf("%.1fx", float64(st.GeneratedLines)/float64(max(st.SpecLines, 1))))
	}
	t.Note("both halves of each API package are this output, checked in (make gen), the guest half with the application-facing Client (native and remote) for every API whose functions all return a status (mvnc, qat); each silo is its package's generated Implementation, so the hand-written remainder is BindServer, the named hooks and OpenCL's guest facade, counted in EXPERIMENTS.md E7; prior systems (GvirtuS) took ~25k hand-written LoC")
	return t, nil
}

// experiments is the one table of what this package can run, in run order:
// canonical short name first (the <exp> of BENCH_<exp>.json), then aliases.
var experiments = []struct {
	names []string
	run   func(Options) (*Table, error)
}{
	{[]string{"fig5", "figure5"}, Figure5},
	{[]string{"async", "ablation"}, AsyncAblation},
	{[]string{"fullvirt", "baseline"}, FullVirtBaseline},
	{[]string{"sharing"}, Sharing},
	{[]string{"swap"}, Swap},
	{[]string{"migrate", "migration"}, Migration},
	{[]string{"effort"}, func(Options) (*Table, error) { return Effort() }},
	{[]string{"transport", "transports"}, Transports},
	{[]string{"breakdown", "stages"}, Breakdown},
	{[]string{"pipeline", "pipelining"}, Pipeline},
	{[]string{"overload", "shed"}, Overload},
	{[]string{"failover", "chaos"}, Failover},
	{[]string{"crosshost", "fleet"}, CrossHost},
	{[]string{"copycost", "zerocopy"}, CopyCost},
	{[]string{"rebalance", "sched"}, Rebalance},
	{[]string{"ha", "replicated"}, HA},
}

// Experiments lists every experiment's canonical short name in run order —
// the names ByName accepts and the <exp> part of BENCH_<exp>.json.
func Experiments() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.names[0]
	}
	return out
}

// All runs every experiment.
func All(opts Options) ([]*Table, error) {
	var out []*Table
	for _, e := range experiments {
		tbl, err := e.run(opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.names[0], err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// ByName runs one experiment by its short name or an alias.
func ByName(name string, opts Options) (*Table, error) {
	for _, e := range experiments {
		if slices.Contains(e.names, name) {
			return e.run(opts)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (%s)", name, strings.Join(Experiments(), ", "))
}

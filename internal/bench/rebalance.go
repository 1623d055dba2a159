package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ava"
	"ava/internal/fleet"
	"ava/internal/guest"
	"ava/internal/host"
	"ava/internal/marshal"
	"ava/internal/server"
)

// E15 uses its own tiny API instead of a Rodinia workload: the point is
// the scheduler, so the handler models a fixed device-service time and a
// deterministic reply, and every host serializes calls on one "device" —
// queueing delay, and therefore tail latency, is purely a function of
// how many VMs the scheduler parked on the host.
const rebalanceSpec = `
api "simload";
const OK = 0;
type st = int32_t { success(OK); };
st work(uint32_t x, uint32_t *y) { parameter(y) { out; element; } }
`

// rebalanceService is the modeled per-call device time. Long enough to
// dominate transport jitter, short enough that the experiment stays fast.
const rebalanceService = 200 * time.Microsecond

func rebalanceReply(x uint32) uint32 { return x*2654435761 + 0x9e37 }

// rebalanceHost starts one API-server machine of the E15 mini-fleet: the
// production host runtime (internal/host) over a simload server whose
// calls serialize on a single modeled device. The load it announces is
// the production sampler's: VMs served, dispatch backlog, bytes moved.
// served counts the calls its device executed.
func rebalanceHost(id string, loc fleet.Locator, served *atomic.Int64) (*host.Server, error) {
	d, err := ava.CompileSpec(rebalanceSpec)
	if err != nil {
		return nil, err
	}
	// No Adapter: simload keeps nothing in the handle table, so the
	// guardian's snapshots are empty and migration cost is the replay log.
	reg := server.NewRegistry(d)
	var dev sync.Mutex // the "device": one call executes at a time
	reg.MustRegister("work", func(inv *server.Invocation) error {
		dev.Lock()
		time.Sleep(rebalanceService)
		dev.Unlock()
		served.Add(1)
		inv.SetOutUint(1, uint64(rebalanceReply(uint32(inv.Uint(0)))))
		inv.SetStatus(0)
		return nil
	})
	return host.Start(server.New(reg), host.Config{
		Listen: "127.0.0.1:0", API: "simload", Locator: loc, ID: id,
		AnnounceEvery: 15 * time.Millisecond,
	})
}

// rebalanceResult is one full run: every VM's reply checksum, the tail
// latency of the steady-state window, and what the scheduler did.
type rebalanceResult struct {
	dur        time.Duration
	p99        time.Duration // steady-state window (second half of each VM's calls)
	p50        time.Duration
	checksums  []uint32 // per VM, order = VM id
	migrations uint64
	maxHostVMs int   // fleet's hottest host after the run
	maxServed  int64 // most calls any one host's device executed
}

// rebalanceRun drives one E15 phase: vms guests admitted while host-a is
// the fleet's only machine, then two empty peers join and — when
// rebalance is on — the stack's background rebalancer spreads the VMs
// mid-workload.
func rebalanceRun(rebalance bool, vms, calls int) (*rebalanceResult, error) {
	loc := fleet.NewRegistry(0, nil)
	var hosts []*host.Server
	var served []*atomic.Int64 // per host, order = hosts
	defer func() {
		for _, h := range hosts {
			h.Kill()
		}
	}()
	boot := func(ids ...string) error {
		for _, id := range ids {
			n := new(atomic.Int64)
			h, err := rebalanceHost(id, loc, n)
			if err != nil {
				return err
			}
			hosts, served = append(hosts, h), append(served, n)
		}
		return nil
	}
	// The skew every real scheduler eventually faces: host-a was the only
	// machine up when the VMs were admitted, so admission parks every one
	// of them there; its peers join the fleet (below) too late.
	if err := boot("host-a"); err != nil {
		return nil, err
	}

	desc, err := ava.CompileSpec(rebalanceSpec)
	if err != nil {
		return nil, err
	}
	workFn, _ := desc.Lookup("work")
	opts := []ava.Option{
		ava.WithPlacement(ava.PlacementConfig{Locator: loc, API: "simload"}),
	}
	if rebalance {
		opts = append(opts, ava.WithRebalance(ava.RebalanceConfig{
			Interval:        20 * time.Millisecond,
			Alpha:           0.5,
			SkewRatio:       1.3,
			HysteresisTicks: 2,
			CooldownTicks:   1,
			WindowTicks:     10,
			MaxPerWindow:    4,
			BatchMax:        2,
			VMCooldownTicks: 5,
		}))
	}
	stack := observe(ava.NewStack(desc, nil, opts...))
	defer stack.Close()

	libs := make([]*ava.GuestLib, vms)
	for i := 0; i < vms; i++ {
		lib, err := stack.AttachVM(ava.VMConfig{ID: uint32(i + 1), Name: vmName(uint32(i + 1))})
		if err != nil {
			return nil, err
		}
		libs[i] = lib
	}
	if err := boot("host-b", "host-c"); err != nil {
		return nil, err
	}

	res := &rebalanceResult{checksums: make([]uint32, vms)}
	lats := make([][]time.Duration, vms)
	errs := make([]error, vms)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range libs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lib := libs[i]
			sum := uint32(2166136261)
			for c := 0; c < calls; c++ {
				x := uint32(i)<<16 | uint32(c)
				// The typed entry, as a generated stub would use it: the out
				// element comes back in its slot of the argument vector.
				args := [2]marshal.Value{marshal.Uint(uint64(x)), marshal.Len(4)}
				t0 := time.Now()
				if _, err := lib.Invoke(workFn, &guest.CallOptions{}, args[:]); err != nil {
					errs[i] = fmt.Errorf("vm %d call %d: %w", i+1, c, err)
					return
				}
				lats[i] = append(lats[i], time.Since(t0))
				y := uint32(args[1].Uint())
				if y != rebalanceReply(x) {
					errs[i] = fmt.Errorf("vm %d call %d: corrupted reply %d", i+1, c, y)
					return
				}
				sum = (sum ^ y) * 16777619
			}
			res.checksums[i] = sum
		}(i)
	}
	wg.Wait()
	res.dur = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Tail latency over the steady-state window: the second half of each
	// VM's calls, after the rebalancer (when on) has had time to act.
	var tail []time.Duration
	for _, ls := range lats {
		tail = append(tail, ls[len(ls)/2:]...)
	}
	res.p50, res.p99 = percentile(tail, 0.50), percentile(tail, 0.99)
	if r := stack.Rebalancer(); r != nil {
		res.migrations = r.Stats().Migrations
	}
	for i, h := range hosts {
		res.maxHostVMs = max(res.maxHostVMs, len(h.VMs()))
		res.maxServed = max(res.maxServed, served[i].Load())
	}
	return res, nil
}

// Rebalance is E15: every VM lands on the one host that was up at
// admission, and the background rebalancer live-migrates the fleet
// toward balance mid-workload through the guardian checkpoint/relocate
// path. Acceptance: VMs move and the hottest device executes a smaller
// share of the calls (the queueing delay behind it — the reported p99 — falls
// with it), every reply is correct, and the per-VM reply checksums are
// byte-identical between the two runs — migration lost and duplicated
// nothing.
func Rebalance(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E15/Rebalance",
		Title:  "Cluster rebalancing: skewed admissions live-migrated off the hot host mid-workload",
		Header: []string{"mode", "total", "p50 (tail)", "p99 (tail)", "migrations", "hottest host", "its calls", "identical"},
	}
	const vms = 9
	calls := 200 * opts.scale()

	static, err := rebalanceRun(false, vms, calls)
	if err != nil {
		return nil, fmt.Errorf("static run: %w", err)
	}
	rebal, err := rebalanceRun(true, vms, calls)
	if err != nil {
		return nil, fmt.Errorf("rebalanced run: %w", err)
	}
	identical := len(static.checksums) == len(rebal.checksums)
	for i := range static.checksums {
		identical = identical && static.checksums[i] == rebal.checksums[i]
	}
	t.Add("static (skewed)", ms(static.dur), ms(static.p50), ms(static.p99),
		fmt.Sprintf("%d", static.migrations), fmt.Sprintf("%d VMs", static.maxHostVMs), fmt.Sprintf("%d", static.maxServed), "-")
	t.Add("rebalanced", ms(rebal.dur), ms(rebal.p50), ms(rebal.p99),
		fmt.Sprintf("%d", rebal.migrations), fmt.Sprintf("%d VMs", rebal.maxHostVMs), fmt.Sprintf("%d", rebal.maxServed),
		fmt.Sprintf("%v", identical))
	t.AddMetric("static_p99", "ms", float64(static.p99)/1e6)
	t.AddMetric("rebalanced_p99", "ms", float64(rebal.p99)/1e6)
	t.AddMetric("migrations", "count", float64(rebal.migrations))
	t.Note("identical = per-VM FNV checksums over every reply match the static run bit for bit (no call lost, duplicated or corrupted by migration)")
	t.Note("each host serializes calls on one modeled device (%v/call): tail latency is queueing delay, i.e. pure scheduler quality", rebalanceService)
	return t, nil
}

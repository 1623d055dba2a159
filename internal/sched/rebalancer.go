package sched

import (
	"sync"
	"time"

	"ava/internal/clock"
	"ava/internal/fleet"
)

// HostLoad is one host's view in a rebalance evaluation: its announced
// member record (load signals included) joined with the VMs currently
// served there.
type HostLoad struct {
	Member fleet.Member
	VMs    []uint32
}

// Config tunes a Rebalancer. Every horizon is denominated in evaluation
// ticks, not wall time, so the decision procedure is exactly reproducible:
// a test driving Tick() by hand and a daemon driving it off a timer run
// the same state machine.
type Config struct {
	// Interval paces the background loop (Start); 0 = 1s. Tests that call
	// Tick directly never consult it.
	Interval time.Duration
	// Alpha is the per-tick EWMA smoothing factor applied to each host's
	// load score, in (0,1]; 0 = 0.25. Smaller alpha = longer memory = a
	// wider window before a skew registers.
	Alpha float64
	// SkewRatio declares a host hot when its load EWMA exceeds the fleet
	// mean EWMA by this factor; 0 = 1.5.
	SkewRatio float64
	// HysteresisTicks is how many consecutive ticks a host must stay hot
	// before the first migration — a transient spike never moves a VM.
	// 0 = 3.
	HysteresisTicks int
	// CooldownTicks is the minimum tick gap between migration batches;
	// 0 = 2. Together with the EWMA lag it gives announced loads time to
	// catch up with a migration before the next one is considered.
	CooldownTicks int
	// WindowTicks and MaxPerWindow bound migration churn: at most
	// MaxPerWindow migrations within any WindowTicks-tick sliding window.
	// Defaults: 10 and 4. This is the no-flap guarantee the tests assert.
	WindowTicks  int
	MaxPerWindow int
	// BatchMax caps migrations started by a single evaluation; 0 = 1.
	BatchMax int
	// VMCooldownTicks is how long after migrating a VM the rebalancer
	// refuses to move that same VM again; 0 = 2*WindowTicks. A VM bouncing
	// host-to-host is the classic flap signature.
	VMCooldownTicks int
	// From restricts migrations to VMs served by this host ID — the mode
	// avad uses to shed only its own load. "" considers any hot host.
	From string
	// Policy ranks migration targets; nil = LeastLoad.
	Policy Policy
	// Clock stamps decisions and paces the loop; nil = wall clock.
	Clock clock.Clock
	// Log, if set, receives a Decision per migration.
	Log *Log
}

// Stats counts a rebalancer's lifetime activity.
type Stats struct {
	// Ticks is how many evaluations have run.
	Ticks uint64 `json:"ticks"`
	// SkewTicks is how many evaluations saw a host over the skew ratio.
	SkewTicks uint64 `json:"skew_ticks"`
	// Migrations is how many live migrations were started successfully.
	Migrations uint64 `json:"migrations"`
	// Failed counts migrate-hook errors (VM mid-recovery, host vanished).
	Failed uint64 `json:"failed"`
	// Suppressed counts evaluations where a sustained skew existed but
	// hysteresis, cooldown, or the per-window budget blocked migration —
	// the anti-flap machinery doing its job.
	Suppressed uint64 `json:"suppressed"`
}

// Rebalancer watches per-host load and live-migrates VMs off sustained-hot
// hosts. It detects skew on an EWMA of each host's load score, requires
// the skew to persist (hysteresis), bounds migrations per sliding window,
// and never moves a VM it migrated recently — so it provably cannot flap.
type Rebalancer struct {
	cfg     Config
	loads   func() []HostLoad
	migrate func(vm uint32, target string) error

	// evalMu serializes whole evaluations (Tick, Kick, the Start loop):
	// the EWMA/hysteresis state machine and the window budget are only
	// correct when evaluations never interleave, and the migrate hook —
	// which can block for a full checkpoint-and-relocate round trip — runs
	// under it alone. mu guards only the stats snapshot, so Stats() (the
	// /metrics scrape path) never waits behind an in-flight migration.
	evalMu     sync.Mutex
	tick       uint64
	ewma       map[string]float64
	hotStreak  map[string]int
	vmCooldown map[uint32]uint64 // vm -> tick of its last migration
	recent     []uint64          // ticks of recent migrations (window budget)
	lastBatch  uint64            // tick of the last migration batch

	mu    sync.Mutex
	stats Stats

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// New builds a rebalancer over a load source and a migration hook. loads
// returns the current per-host view (announced member + VMs served
// there); migrate starts one VM's live migration to the target host ID
// and is expected to coordinate with the VM's guardian (checkpoint, then
// re-dial under epoch fencing) exactly like the control plane's /migrate.
func New(cfg Config, loads func() []HostLoad, migrate func(vm uint32, target string) error) *Rebalancer {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.25
	}
	if cfg.SkewRatio <= 0 {
		cfg.SkewRatio = 1.5
	}
	if cfg.HysteresisTicks <= 0 {
		cfg.HysteresisTicks = 3
	}
	if cfg.CooldownTicks <= 0 {
		cfg.CooldownTicks = 2
	}
	if cfg.WindowTicks <= 0 {
		cfg.WindowTicks = 10
	}
	if cfg.MaxPerWindow <= 0 {
		cfg.MaxPerWindow = 4
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 1
	}
	if cfg.VMCooldownTicks <= 0 {
		cfg.VMCooldownTicks = 2 * cfg.WindowTicks
	}
	if cfg.Policy == nil {
		cfg.Policy = LeastLoad{}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	return &Rebalancer{
		cfg:        cfg,
		loads:      loads,
		migrate:    migrate,
		ewma:       make(map[string]float64),
		hotStreak:  make(map[string]int),
		vmCooldown: make(map[uint32]uint64),
		done:       make(chan struct{}),
	}
}

// Start runs the background evaluation loop until Close.
func (r *Rebalancer) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for clock.Wait(r.cfg.Clock, r.cfg.Interval, r.done) {
			r.Tick()
		}
	}()
}

// Close stops the loop. Safe to call without Start.
func (r *Rebalancer) Close() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}

// Stats returns a copy of the lifetime counters.
func (r *Rebalancer) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Tick runs one evaluation and returns how many migrations it started.
func (r *Rebalancer) Tick() int { return r.evaluate(false) }

// Kick is the manual trigger (POST /rebalance): one evaluation with the
// hysteresis requirement waived — the operator has already decided the
// skew is real — but the window budget, cooldowns and the no-inversion
// guard still hold, so even a scripted Kick loop cannot flap the fleet.
func (r *Rebalancer) Kick() int { return r.evaluate(true) }

// bump applies one mutation to the stats snapshot under its own lock.
func (r *Rebalancer) bump(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

func (r *Rebalancer) evaluate(force bool) int {
	r.evalMu.Lock()
	defer r.evalMu.Unlock()
	r.tick++
	r.bump(func(s *Stats) { s.Ticks++ })

	hosts := r.loads()
	if len(hosts) < 2 {
		r.hotStreak = make(map[string]int)
		return 0
	}

	// Smooth each host's score; forget hosts that left the fleet.
	present := make(map[string]bool, len(hosts))
	var sum float64
	for _, h := range hosts {
		id := h.Member.ID
		present[id] = true
		s := h.Member.Score()
		if prev, ok := r.ewma[id]; ok {
			r.ewma[id] = prev + r.cfg.Alpha*(s-prev)
		} else {
			r.ewma[id] = s
		}
		sum += r.ewma[id]
	}
	for id := range r.ewma {
		if !present[id] {
			delete(r.ewma, id)
			delete(r.hotStreak, id)
		}
	}
	mean := sum / float64(len(hosts))

	// Find the hottest eligible host: over the skew ratio, serving at
	// least one VM we may move, and matching the From restriction.
	var hot *HostLoad
	for i := range hosts {
		h := &hosts[i]
		id := h.Member.ID
		if mean <= 0 || r.ewma[id] <= r.cfg.SkewRatio*mean || len(h.VMs) == 0 {
			r.hotStreak[id] = 0
			continue
		}
		if r.cfg.From != "" && id != r.cfg.From {
			r.hotStreak[id] = 0
			continue
		}
		r.hotStreak[id]++
		if hot == nil || r.ewma[id] > r.ewma[hot.Member.ID] ||
			(r.ewma[id] == r.ewma[hot.Member.ID] && id < hot.Member.ID) {
			hot = h
		}
	}
	if hot == nil {
		return 0
	}
	r.bump(func(s *Stats) { s.SkewTicks++ })

	if !force && r.hotStreak[hot.Member.ID] < r.cfg.HysteresisTicks {
		r.bump(func(s *Stats) { s.Suppressed++ })
		return 0
	}
	// Cooldown between batches, and the sliding-window budget.
	if r.lastBatch != 0 && r.tick-r.lastBatch < uint64(r.cfg.CooldownTicks) {
		r.bump(func(s *Stats) { s.Suppressed++ })
		return 0
	}
	budget := r.cfg.MaxPerWindow - r.migrationsInWindow()
	if budget <= 0 {
		r.bump(func(s *Stats) { s.Suppressed++ })
		return 0
	}
	if budget > r.cfg.BatchMax {
		budget = r.cfg.BatchMax
	}

	// Rank targets and plan the batch. perVM approximates one VM's share
	// of the hot host's load; a move only happens while it cannot invert
	// the skew (hot stays at or above the target after the transfer) —
	// the structural anti-flap guard.
	targets := make([]fleet.Member, 0, len(hosts)-1)
	for _, h := range hosts {
		if h.Member.ID != hot.Member.ID {
			targets = append(targets, h.Member)
		}
	}
	hotScore := hot.Member.Score()
	perVM := hotScore / float64(len(hot.VMs))
	if perVM <= 0 {
		perVM = 1
	}
	targetScore := make(map[string]float64, len(targets))
	for _, t := range targets {
		targetScore[t.ID] = t.Score()
	}

	started := 0
	vmIdx := 0
	for started < budget {
		// Next candidate VM on the hot host, skipping recently moved ones.
		var vm uint32
		found := false
		for ; vmIdx < len(hot.VMs); vmIdx++ {
			v := hot.VMs[vmIdx]
			if last, ok := r.vmCooldown[v]; ok && r.tick-last < uint64(r.cfg.VMCooldownTicks) {
				continue
			}
			vm, found = v, true
			vmIdx++
			break
		}
		if !found {
			break
		}
		ranked := r.cfg.Policy.Rank(vm, append([]fleet.Member(nil), targets...))
		if len(ranked) == 0 {
			break
		}
		tgt := ranked[0]
		// Re-rank by the simulated scores: earlier moves in this batch
		// already claimed capacity on their targets.
		for _, c := range ranked {
			if targetScore[c.ID] < targetScore[tgt.ID] ||
				(targetScore[c.ID] == targetScore[tgt.ID] && c.ID < tgt.ID) {
				tgt = c
			}
		}
		if hotScore-perVM < targetScore[tgt.ID]+perVM {
			break // the move would invert the skew: stop, do not flap
		}
		if err := r.migrate(vm, tgt.ID); err != nil {
			r.bump(func(s *Stats) { s.Failed++ })
			continue // VM mid-recovery or similar; try the next one
		}
		r.bump(func(s *Stats) { s.Migrations++ })
		r.vmCooldown[vm] = r.tick
		r.recent = append(r.recent, r.tick)
		r.lastBatch = r.tick
		hotScore -= perVM
		targetScore[tgt.ID] += perVM
		started++
		if r.cfg.Log != nil {
			r.cfg.Log.Add(Decision{
				Time:   r.cfg.Clock.Now(),
				Kind:   "rebalance",
				VM:     vm,
				From:   hot.Member.ID,
				To:     tgt.ID,
				Policy: r.cfg.Policy.Name(),
				Reason: "sustained load skew",
			})
		}
	}
	if started == 0 {
		r.bump(func(s *Stats) { s.Suppressed++ })
	}
	return started
}

// migrationsInWindow counts migrations inside the sliding window ending
// now, pruning entries that aged out. Caller holds r.evalMu.
func (r *Rebalancer) migrationsInWindow() int {
	cut := uint64(0)
	if r.tick > uint64(r.cfg.WindowTicks) {
		cut = r.tick - uint64(r.cfg.WindowTicks)
	}
	keep := r.recent[:0]
	for _, t := range r.recent {
		if t > cut {
			keep = append(keep, t)
		}
	}
	r.recent = keep
	return len(r.recent)
}

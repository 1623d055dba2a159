package sched

import (
	"errors"
	"testing"
	"time"

	"ava/internal/clock"
	"ava/internal/fleet"
	"ava/internal/leaktest"
)

// simFleet is a synthetic cluster the rebalancer steers: migrations move
// VMs between hosts instantly and load is exactly the VM count, so every
// assertion is deterministic.
type simFleet struct {
	hosts map[string][]uint32
	order []string
	moves []string // "vm@from->to"
}

func newSimFleet(spread map[string]int) *simFleet {
	f := &simFleet{hosts: make(map[string][]uint32)}
	vm := uint32(1)
	for _, id := range []string{"host-a", "host-b", "host-c"} {
		n, ok := spread[id]
		if !ok {
			continue
		}
		f.order = append(f.order, id)
		for i := 0; i < n; i++ {
			f.hosts[id] = append(f.hosts[id], vm)
			vm++
		}
	}
	return f
}

func (f *simFleet) loads() []HostLoad {
	out := make([]HostLoad, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, HostLoad{
			Member: fleet.Member{ID: id, API: "test", Load: len(f.hosts[id])},
			VMs:    append([]uint32(nil), f.hosts[id]...),
		})
	}
	return out
}

func (f *simFleet) migrate(vm uint32, target string) error {
	for id, vms := range f.hosts {
		for i, v := range vms {
			if v == vm {
				f.hosts[id] = append(vms[:i:i], vms[i+1:]...)
				f.hosts[target] = append(f.hosts[target], vm)
				f.moves = append(f.moves, formatMove(vm, id, target))
				return nil
			}
		}
	}
	return errors.New("unknown vm")
}

func formatMove(vm uint32, from, to string) string {
	return string(rune('0'+vm%10)) + "@" + from + "->" + to
}

func TestRebalancerMovesSustainedSkewAndConverges(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 12, "host-b": 0, "host-c": 0})
	cfg := Config{
		Alpha:           1, // no smoothing: the sim is noise-free
		SkewRatio:       1.2,
		HysteresisTicks: 3,
		CooldownTicks:   1,
		WindowTicks:     10,
		MaxPerWindow:    4,
		BatchMax:        2,
		VMCooldownTicks: 1,
	}
	r := New(cfg, f.loads, f.migrate)

	// The first two ticks see the skew but hysteresis holds migrations.
	if n := r.Tick(); n != 0 {
		t.Fatalf("tick 1 migrated %d, want 0 (hysteresis)", n)
	}
	if n := r.Tick(); n != 0 {
		t.Fatalf("tick 2 migrated %d, want 0 (hysteresis)", n)
	}
	for i := 0; i < 60; i++ {
		r.Tick()
	}
	// Converged: 4/4/4 is perfectly balanced; anything within one VM of
	// even is acceptable given the no-inversion guard stops early.
	for id, vms := range f.hosts {
		if len(vms) < 3 || len(vms) > 5 {
			t.Fatalf("host %s ended with %d VMs, want ~4 (spread %v)", id, len(vms), f.hosts)
		}
	}
	st := r.Stats()
	if st.Migrations == 0 {
		t.Fatal("no migrations despite sustained skew")
	}

	// Balance holds: many more ticks must not move anything — the
	// rebalancer does not flap once the skew is gone.
	before := st.Migrations
	for i := 0; i < 50; i++ {
		r.Tick()
	}
	if after := r.Stats().Migrations; after != before {
		t.Fatalf("rebalancer flapped: %d extra migrations on a balanced fleet", after-before)
	}
}

// TestRebalancerBoundedMigrationsPerWindow is the no-flap acceptance
// assertion: across the whole run, no WindowTicks-wide window ever
// contains more than MaxPerWindow migrations.
func TestRebalancerBoundedMigrationsPerWindow(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 40, "host-b": 0, "host-c": 0})
	cfg := Config{
		Alpha:           1,
		SkewRatio:       1.2,
		HysteresisTicks: 1,
		CooldownTicks:   1,
		WindowTicks:     5,
		MaxPerWindow:    3,
		BatchMax:        3, // would love to move 3 every tick; budget says no
		VMCooldownTicks: 1,
	}
	var migrationTicks []int
	tick := 0
	r := New(cfg, f.loads, func(vm uint32, target string) error {
		migrationTicks = append(migrationTicks, tick)
		return f.migrate(vm, target)
	})
	for tick = 1; tick <= 120; tick++ {
		r.Tick()
	}
	if len(migrationTicks) == 0 {
		t.Fatal("no migrations at all")
	}
	// Sliding-window audit over the recorded schedule.
	for i := range migrationTicks {
		n := 1
		for j := i + 1; j < len(migrationTicks); j++ {
			if migrationTicks[j]-migrationTicks[i] < cfg.WindowTicks {
				n++
			}
		}
		if n > cfg.MaxPerWindow {
			t.Fatalf("window starting at tick %d holds %d migrations, budget %d (schedule %v)",
				migrationTicks[i], n, cfg.MaxPerWindow, migrationTicks)
		}
	}
}

func TestRebalancerIgnoresTransientSpike(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 2, "host-b": 2, "host-c": 2})
	r := New(Config{Alpha: 1, HysteresisTicks: 3}, f.loads, f.migrate)
	r.Tick()
	// One tick of artificial skew, then balance again.
	f.hosts["host-a"] = append(f.hosts["host-a"], 90, 91, 92, 93, 94, 95)
	r.Tick()
	f.hosts["host-a"] = f.hosts["host-a"][:2]
	for i := 0; i < 20; i++ {
		r.Tick()
	}
	if st := r.Stats(); st.Migrations != 0 {
		t.Fatalf("transient spike caused %d migrations, want 0", st.Migrations)
	}
}

func TestRebalancerFromRestrictsSource(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 9, "host-b": 0, "host-c": 0})
	r := New(Config{
		Alpha: 1, HysteresisTicks: 1, CooldownTicks: 1, VMCooldownTicks: 1,
		From: "host-b", // only host-b may shed, and it is cold
	}, f.loads, f.migrate)
	for i := 0; i < 30; i++ {
		r.Tick()
	}
	if st := r.Stats(); st.Migrations != 0 {
		t.Fatalf("From-restricted rebalancer moved %d VMs off a foreign host", st.Migrations)
	}
	if len(f.hosts["host-a"]) != 9 {
		t.Fatalf("host-a lost VMs: %v", f.hosts)
	}
}

// Stats must never wait behind an in-flight migration: the migrate hook
// blocks for a full checkpoint-and-relocate round trip, and the /metrics
// scrape reads Stats while that happens.
func TestRebalancerStatsNonBlockingDuringMigration(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 6, "host-b": 0, "host-c": 0})
	entered := make(chan struct{})
	release := make(chan struct{})
	r := New(Config{
		Alpha: 1, HysteresisTicks: 1, CooldownTicks: 1, VMCooldownTicks: 1,
	}, f.loads, func(vm uint32, target string) error {
		close(entered)
		<-release
		return f.migrate(vm, target)
	})
	tickDone := make(chan struct{})
	go func() {
		r.Tick()
		close(tickDone)
	}()
	<-entered
	got := make(chan Stats, 1)
	go func() { got <- r.Stats() }()
	select {
	case st := <-got:
		if st.Ticks != 1 {
			t.Fatalf("mid-migration stats = %+v, want Ticks=1", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked behind an in-flight migration")
	}
	close(release)
	<-tickDone
	if st := r.Stats(); st.Migrations != 1 {
		t.Fatalf("post-migration stats = %+v, want Migrations=1", st)
	}
}

// Close must interrupt the interval wait rather than ride it out: on a
// manual test clock nobody advances (or a long Interval on the wall
// clock), a Sleep-based loop would block Close indefinitely.
func TestRebalancerCloseInterruptsIntervalWait(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 2, "host-b": 2, "host-c": 2})
	r := New(Config{Interval: time.Hour, Clock: clock.NewVirtual()}, f.loads, f.migrate)
	r.Start()
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on the interval wait")
	}
}

func TestRebalancerKickWaivesHysteresisOnly(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	f := newSimFleet(map[string]int{"host-a": 12, "host-b": 0, "host-c": 0})
	log := NewLog()
	r := New(Config{
		Alpha: 1, HysteresisTicks: 100, // ticks alone would never migrate
		CooldownTicks: 1, VMCooldownTicks: 1, BatchMax: 2, Log: log,
	}, f.loads, f.migrate)
	r.Tick()
	if n := r.Kick(); n == 0 {
		t.Fatal("Kick migrated nothing despite clear skew")
	}
	if log.Len() == 0 {
		t.Fatal("Kick's migrations missing from the decision log")
	}
	for _, d := range log.Decisions() {
		if d.Kind != "rebalance" || d.From != "host-a" {
			t.Fatalf("unexpected decision %+v", d)
		}
	}
}

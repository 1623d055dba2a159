package failover

import (
	"fmt"
	"sync"

	"ava/internal/fleet"
	"ava/internal/transport"
)

// FleetDialConfig tunes a FleetDialer.
type FleetDialConfig struct {
	// API is the accelerator API the VM needs; only fleet members serving
	// it are candidates.
	API string
	// VM and Name identify the guest in the dial-time hello preamble.
	VM   uint32
	Name string
	// PerHostAttempts is how many consecutive dial failures against the
	// current host are tolerated before the dialer gives up on it and
	// fails over to a peer; 0 means 2. A transient blip (server restart
	// on the same host) is far cheaper to ride out than a cross-host
	// replay.
	PerHostAttempts int
	// Epoch supplies the current endpoint epoch for the hello preamble;
	// nil stamps 0. Wire it to the owning Guardian's Epoch so the serving
	// host can observe reconnects across failovers.
	Epoch func() uint32
	// Resolve turns a fleet member into a live link to its API server.
	// Nil uses DialHost on m.Addr. Tests use it to simulate a fleet
	// in-process.
	Resolve func(m fleet.Member, epoch uint32) (transport.Endpoint, error)
	// Rank, when set, reorders the live candidates best-first before the
	// dialer walks them — the hook a placement policy (internal/sched)
	// plugs into. Nil keeps the registry's health ranking.
	Rank func(vm uint32, ms []fleet.Member) []fleet.Member
	// OnDial, when set, observes every successful dial: the host landed
	// on and the previous host ("" for the first dial). The stack uses it
	// to feed the scheduling decision log and spread-policy counts.
	OnDial func(vm uint32, host, prev string)
}

// FleetDialer is a registry-backed implementation of the guardian's dial
// closure: it serves cross-host failover by retrying the current host under
// a small attempt budget and then moving to the best live peer the fleet
// registry knows, excluding hosts that already failed. Pass its Dial method
// as the Guardian's dial function.
type FleetDialer struct {
	loc fleet.Locator
	cfg FleetDialConfig

	mu          sync.Mutex
	host        string // member ID currently (or last) serving this VM
	attempts    int    // consecutive dial failures against host
	failed      map[string]bool
	hostChanges int
	relocating  bool   // next dial must leave the current host
	relocateTo  string // preferred relocation target ("" = best peer)
}

// NewFleetDialer builds a dialer over loc.
func NewFleetDialer(loc fleet.Locator, cfg FleetDialConfig) *FleetDialer {
	if cfg.PerHostAttempts <= 0 {
		cfg.PerHostAttempts = 2
	}
	return &FleetDialer{loc: loc, cfg: cfg, failed: make(map[string]bool)}
}

// Host returns the fleet member ID currently serving this VM ("" before the
// first successful dial).
func (d *FleetDialer) Host() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host
}

// HostChanges counts successful dials that landed on a different host than
// the previous one — the number of cross-host failovers.
func (d *FleetDialer) HostChanges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostChanges
}

// Relocate directs the next dial away from the current host even though
// it is alive: the per-host retry budget is skipped and the current host
// is excluded from that one candidate query (without being marked failed
// — it is hot, not dead). target, when non-empty and live, is tried
// first; "" lets the ranking pick the best peer. The directive clears on
// the next successful dial, and if no peer is reachable the dialer falls
// back to the current host rather than stranding the VM.
//
// This is the migration half of the rebalance contract: the caller
// checkpoints through the guardian, calls Relocate, then severs the
// serving link so the guardian's recovery dials — and lands — elsewhere.
func (d *FleetDialer) Relocate(target string) {
	d.mu.Lock()
	d.relocating = true
	d.relocateTo = target
	d.mu.Unlock()
}

// Dial implements the guardian's dial closure. Each call is one attempt;
// the guardian's backoff series paces retries between calls.
func (d *FleetDialer) Dial() (transport.Endpoint, error) {
	d.mu.Lock()
	cur, tried := d.host, d.attempts
	reloc, prefer := d.relocating, d.relocateTo
	d.mu.Unlock()
	var epoch uint32
	if d.cfg.Epoch != nil {
		epoch = d.cfg.Epoch()
	}

	if !reloc && cur != "" && tried < d.cfg.PerHostAttempts {
		// Spend the current host's attempt budget before moving: the state
		// already lives there if the failure was a blip. A relocation skips
		// this branch entirely — the point is to leave a live host.
		d.mu.Lock()
		d.attempts++
		d.mu.Unlock()
		cause := fmt.Errorf("not in fleet view")
		if m, ok := d.lookup(cur); ok {
			link, err := d.resolve(m, epoch)
			if err == nil {
				d.noteSuccess(m.ID)
				return link, nil
			}
			cause = err
		}
		return nil, fmt.Errorf("failover: host %s unreachable (attempt %d/%d): %w",
			cur, tried+1, d.cfg.PerHostAttempts, cause)
	}

	// The current host's budget is spent (or there is no host yet, or a
	// relocation is pending): pick the best live peer, excluding
	// everything that already failed. A relocation excludes the current
	// host from this one query without marking it failed — it is hot,
	// not dead, and stays a legitimate failover target afterwards.
	d.mu.Lock()
	if cur != "" && !reloc {
		d.failed[cur] = true
	}
	exclude := make([]string, 0, len(d.failed)+1)
	for id := range d.failed {
		exclude = append(exclude, id)
	}
	if reloc && cur != "" && !d.failed[cur] {
		exclude = append(exclude, cur)
	}
	d.mu.Unlock()

	ms, err := d.loc.Live(d.cfg.API, exclude...)
	if err != nil {
		return nil, fmt.Errorf("failover: fleet query: %w", err)
	}
	if len(ms) == 0 && len(exclude) > 0 {
		// Every known host has failed at least once. Hosts other than the
		// one that just died may have recovered since — clear their marks
		// and try again rather than abandoning the VM. A relocation with
		// no live peer gives up on relocating for the same reason: the
		// current host beats no host.
		d.mu.Lock()
		d.failed = make(map[string]bool)
		if cur != "" && !reloc {
			d.failed[cur] = true
		}
		d.relocating = false
		d.relocateTo = ""
		reloc, prefer = false, ""
		d.mu.Unlock()
		ms, err = d.loc.Live(d.cfg.API)
		if err != nil {
			return nil, fmt.Errorf("failover: fleet query: %w", err)
		}
	}
	if d.cfg.Rank != nil {
		ms = d.cfg.Rank(d.cfg.VM, ms)
	}
	if reloc && prefer != "" {
		// A pinned relocation target jumps the ranking when it is live.
		for i, m := range ms {
			if m.ID == prefer {
				ms[0], ms[i] = ms[i], ms[0]
				break
			}
		}
	}
	var lastErr error
	for _, m := range ms {
		link, err := d.resolve(m, epoch)
		if err == nil {
			d.noteSuccess(m.ID)
			return link, nil
		}
		lastErr = err
		d.mu.Lock()
		d.failed[m.ID] = true
		d.mu.Unlock()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live members")
	}
	return nil, fmt.Errorf("failover: no reachable %q host in fleet: %w", d.cfg.API, lastErr)
}

func (d *FleetDialer) lookup(id string) (fleet.Member, bool) {
	ms, err := d.loc.Live(d.cfg.API)
	if err != nil {
		return fleet.Member{}, false
	}
	for _, m := range ms {
		if m.ID == id {
			return m, true
		}
	}
	return fleet.Member{}, false
}

func (d *FleetDialer) resolve(m fleet.Member, epoch uint32) (transport.Endpoint, error) {
	if d.cfg.Resolve != nil {
		return d.cfg.Resolve(m, epoch)
	}
	link, err := DialHost(m.Addr, d.cfg.VM, epoch, d.cfg.Name)
	if err != nil {
		return link, fmt.Errorf("host %s: %w", m.ID, err)
	}
	return link, nil
}

// DialHost is the one way a remote API server is reached: TCP-dial addr,
// send the hello and wait for the host's admission verdict. Success means
// admitted, not merely connected: the verdict frame arrives before any
// data-plane traffic, so a rejection (the VM was just evicted from this
// host) is a dial failure the caller charges against its retry budget like
// any other, instead of a silent connect-then-sever loop that resets it. A
// server at a configured address and a fleet member out of a registry
// differ only in where addr came from.
func DialHost(addr string, vm, epoch uint32, name string) (transport.Endpoint, error) {
	ep, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := transport.Ctl{Op: transport.OpHello, VM: vm, Seq: uint64(epoch), Payload: []byte(name)}
	if _, err := transport.RoundTrip(ep, hello, transport.OpAck); err != nil {
		ep.Close()
		return nil, err
	}
	return ep, nil
}

func (d *FleetDialer) noteSuccess(id string) {
	d.mu.Lock()
	prev := d.host
	if d.host != "" && d.host != id {
		d.hostChanges++
	}
	d.host = id
	d.attempts = 0
	d.relocating = false
	d.relocateTo = ""
	delete(d.failed, id)
	onDial := d.cfg.OnDial
	vm := d.cfg.VM
	d.mu.Unlock()
	if onDial != nil {
		onDial(vm, id, prev)
	}
}

package ctlplane

import (
	"time"

	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/sched"
	"ava/internal/server"
)

// Ident names the process serving the control endpoint, so a scraper
// walking a fleet can tell hosts apart without joining against the
// registry.
type Ident struct {
	// Service is the serving binary's role: "avad", "avaregd", "avabench".
	Service string `json:"service"`
	// ID is the fleet member identity, when the process announced one.
	ID string `json:"id,omitempty"`
	// API is the accelerator API served ("opencl", "mvnc", "qat").
	API string `json:"api,omitempty"`
	// Addr is the data-plane address guests dial.
	Addr string `json:"addr,omitempty"`
}

// RouterInfo is the hypervisor router's view: per-VM policy counters plus
// the router-global load signals the shedder consults.
type RouterInfo struct {
	// VMs carries per-VM calls forwarded/denied/shed, per-band stall and
	// resource estimates (hv.VMStats), with placement identity.
	VMs []hv.VMSnapshot `json:"vms"`
	// RecentStall is the router's EWMA over admitted calls' rate-limit and
	// scheduling stall — the overload signal, in nanoseconds.
	RecentStall time.Duration `json:"recent_stall"`
	// ShedStallThreshold is the stall level at which the shedder engages
	// (0 = stall-based shedding disabled or not yet calibrated).
	ShedStallThreshold time.Duration `json:"shed_stall_threshold"`
}

// GuestSnapshot is one attached guest library's counters (in-process
// deployments only; a remote avad has no guest side to report).
type GuestSnapshot struct {
	VM    uint32      `json:"vm"`
	Stats guest.Stats `json:"stats"`
}

// GuardianSnapshot is one VM's failover-guardian state.
type GuardianSnapshot struct {
	VM uint32 `json:"vm"`
	// Epoch is the endpoint epoch — bumped once per recovery, fencing
	// frames from dead server incarnations.
	Epoch uint32 `json:"epoch"`
	// Watermark is the checkpoint watermark w: every call at or below it
	// is covered by the last checkpoint and never replays.
	Watermark uint64 `json:"watermark"`
	// Dead carries the terminal error when the guardian has given up
	// ("" while healthy).
	Dead string `json:"dead,omitempty"`
	// CheckpointErr is why the most recent failed checkpoint failed
	// (Stats.FailedCheckpoints counts them); "" if none has.
	CheckpointErr string         `json:"checkpoint_err,omitempty"`
	Stats         failover.Stats `json:"stats"`
}

// Snapshot is the full GET /stats payload: everything the process knows,
// per-section; absent sections are omitted (an avaregd has no router, a
// standalone avad no guardians).
type Snapshot struct {
	Ident     Ident                 `json:"ident"`
	Router    *RouterInfo           `json:"router,omitempty"`
	Server    []server.VMSnapshot   `json:"server,omitempty"`
	Guests    []GuestSnapshot       `json:"guests,omitempty"`
	Guardians []GuardianSnapshot    `json:"guardians,omitempty"`
	Fleet     []fleet.Status        `json:"fleet,omitempty"`
	Mirror    []failover.MirroredVM `json:"mirror,omitempty"`
}

// VMRow is the compact GET /vms join: one row per VM, merging router- and
// server-side views by VM ID. Fields from a side the process does not run
// stay zero.
type VMRow struct {
	ID    uint32 `json:"id"`
	Name  string `json:"name,omitempty"`
	Host  string `json:"host,omitempty"`
	Epoch uint32 `json:"epoch,omitempty"`

	// Router side.
	Forwarded  uint64        `json:"forwarded,omitempty"`
	Denied     uint64        `json:"denied,omitempty"`
	ShedDenied uint64        `json:"shed_denied,omitempty"`
	Stall      time.Duration `json:"stall,omitempty"`

	// Server side.
	Calls         uint64        `json:"calls,omitempty"`
	Errors        uint64        `json:"errors,omitempty"`
	QueueDepth    int           `json:"queue_depth,omitempty"`
	BytesCopied   uint64        `json:"bytes_copied,omitempty"`
	BytesBorrowed uint64        `json:"bytes_borrowed,omitempty"`
	ExecTime      time.Duration `json:"exec_time,omitempty"`
	RunTime       time.Duration `json:"run_time,omitempty"`
}

// Rows flattens a snapshot into the /vms join.
func (s *Snapshot) Rows() []VMRow {
	byID := make(map[uint32]*VMRow)
	var order []uint32
	row := func(id uint32) *VMRow {
		if r, ok := byID[id]; ok {
			return r
		}
		r := &VMRow{ID: id}
		byID[id] = r
		order = append(order, id)
		return r
	}
	if s.Router != nil {
		for _, vm := range s.Router.VMs {
			r := row(vm.ID)
			r.Name, r.Host, r.Epoch = vm.Name, vm.Host, vm.Epoch
			r.Forwarded = vm.Stats.Forwarded
			r.Denied = vm.Stats.Denied
			r.ShedDenied = vm.Stats.ShedDenied
			r.Stall = vm.Stats.Stall
		}
	}
	for _, vm := range s.Server {
		r := row(vm.VM)
		if r.Name == "" {
			r.Name = vm.Name
		}
		r.Calls = vm.Stats.Calls
		r.Errors = vm.Stats.Errors
		r.QueueDepth = vm.QueueDepth
		r.BytesCopied = vm.Stats.BytesCopied
		r.BytesBorrowed = vm.Stats.BytesBorrowed
		r.ExecTime = vm.Stats.ExecTime
		r.RunTime = vm.Stats.RunTime
	}
	out := make([]VMRow, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// Config wires a control-plane server to the process's live state. Every
// source func is optional (nil omits the section); every source must be
// safe to call concurrently with the data path, which holds for the
// snapshot methods they are expected to wrap.
type Config struct {
	Ident Ident

	// Router sources the router section (hv.Router.Snapshot plus the load
	// signals).
	Router func() *RouterInfo
	// Server sources live per-VM server counters (server.Server.Snapshot).
	Server func() []server.VMSnapshot
	// Guests sources attached guest-library counters (in-process stacks).
	Guests func() []GuestSnapshot
	// Guardians sources failover-guardian state.
	Guardians func() []GuardianSnapshot
	// Fleet sources the membership view: a registry's admin table, or the
	// live peer set an announcer sees.
	Fleet func() []fleet.Status
	// Mirror sources the per-VM replication standing of a mirror host
	// (failover.MirrorServer.Snapshot); nil omits the section.
	Mirror func() []failover.MirroredVM

	// Drain initiates a graceful drain (POST /drain). It should start the
	// drain and return promptly; the process exits on its own schedule.
	Drain func() error
	// Checkpoint forces a checkpoint of one VM now (POST /checkpoint).
	Checkpoint func(vm uint32) error
	// Migrate asks the process to move one VM to the target host
	// (POST /migrate). An empty target lets the fleet dialer pick the
	// lightest live peer.
	Migrate func(vm uint32, target string) error
	// Sched sources the scheduling decision log (GET /sched) — typically
	// sched.Log.Decisions of the stack's placement log.
	Sched func() []sched.Decision
	// Rebalance triggers one rebalance evaluation now (POST /rebalance)
	// and reports how many migrations it started — typically
	// sched.Rebalancer.Kick.
	Rebalance func() (int, error)
	// RebalanceStats sources the rebalancer's lifetime counters for the
	// metrics exposition; nil omits them.
	RebalanceStats func() sched.Stats

	// Token, when non-empty, is the shared secret every POST must present
	// (Authorization: Bearer <token> or X-Ava-Token). GETs stay open.
	Token string
}

// snapshot assembles the full Snapshot from the configured sources.
func (c *Config) snapshot() *Snapshot {
	s := &Snapshot{Ident: c.Ident}
	if c.Router != nil {
		s.Router = c.Router()
	}
	if c.Server != nil {
		s.Server = c.Server()
	}
	if c.Guests != nil {
		s.Guests = c.Guests()
	}
	if c.Guardians != nil {
		s.Guardians = c.Guardians()
	}
	if c.Fleet != nil {
		s.Fleet = c.Fleet()
	}
	if c.Mirror != nil {
		s.Mirror = c.Mirror()
	}
	return s
}

// RouterSource adapts an hv.Router into a Config.Router func.
func RouterSource(r *hv.Router) func() *RouterInfo {
	return func() *RouterInfo {
		return &RouterInfo{
			VMs:                r.Snapshot(),
			RecentStall:        r.RecentStall(),
			ShedStallThreshold: r.ShedStallThreshold(),
		}
	}
}

// ServerSource adapts a server.Server into a Config.Server func.
func ServerSource(s *server.Server) func() []server.VMSnapshot {
	return s.Snapshot
}

// GuardianSource builds one VM's GuardianSnapshot.
func GuardianSource(vm uint32, g *failover.Guardian) GuardianSnapshot {
	st := g.Stats()
	snap := GuardianSnapshot{
		VM:        vm,
		Epoch:     g.Epoch(),
		Watermark: st.LastWatermark,
		Stats:     st,
	}
	if err := g.DeadErr(); err != nil {
		snap.Dead = err.Error()
	}
	if err := g.CheckpointErr(); err != nil {
		snap.CheckpointErr = err.Error()
	}
	return snap
}

package failover

import (
	"fmt"
	"sort"
	"sync"

	"ava/internal/marshal"
	"ava/internal/transport"
)

// MirrorServer is the hosting side of the mirror ops: one per-VM
// MemoryMirror fed by remote guardians' replication streams, served from
// an avad started with -mirror. A replacement guardian on any machine
// fetches a VM's accumulated MirrorState back with FetchMirrorState and
// rehydrates from it exactly as it would from an in-process mirror.
type MirrorServer struct {
	mu  sync.Mutex
	vms map[uint32]*mirroredVM
}

type mirroredVM struct {
	name string
	m    *MemoryMirror
}

// NewMirrorServer builds an empty mirror host.
func NewMirrorServer() *MirrorServer {
	return &MirrorServer{vms: make(map[uint32]*mirroredVM)}
}

// mirror returns vm's mirror for writing, creating it under name on the
// first batch; only a replication session that said hello gets here.
func (s *MirrorServer) mirror(vm uint32, name string) *MemoryMirror {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vms[vm] == nil {
		s.vms[vm] = &mirroredVM{m: NewMemoryMirror()}
	}
	s.vms[vm].name = name
	return s.vms[vm].m
}

// State snapshots vm's mirrored state. A VM nobody mirrored has the empty
// state; asking does not create it.
func (s *MirrorServer) State(vm uint32) *MirrorState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.vms[vm]; v != nil {
		return v.m.State()
	}
	return NewMemoryMirror().State()
}

// MirroredVM is one VM's standing on the mirror host — the admin view the
// control plane scrapes.
type MirroredVM struct {
	VM      uint32 `json:"vm"`
	Name    string `json:"name,omitempty"`
	Entries int    `json:"entries"`
	W       uint64 `json:"w"`
	Epoch   uint32 `json:"epoch"`
	Objects int    `json:"objects"`
}

// Snapshot lists every mirrored VM sorted by ID.
func (s *MirrorServer) Snapshot() []MirroredVM {
	s.mu.Lock()
	out := make([]MirroredVM, 0, len(s.vms))
	for vm, v := range s.vms {
		out = append(out, MirroredVM{VM: vm, Name: v.name})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].VM < out[j].VM })
	for i := range out {
		st := s.State(out[i].VM)
		out[i].Entries, out[i].W, out[i].Epoch, out[i].Objects = len(st.Entries), st.W, st.Epoch, len(st.Objects)
	}
	return out
}

// ServeConn runs one replication session. A hello opens it for a VM; every
// later op must name a VM this connection said hello for, or is refused.
// Batches are applied in arrival order and acked by opseq (ok=0: a sub-op
// was malformed or could not compose, the sender must resync); state
// requests are answered in line and never create a VM.
func (s *MirrorServer) ServeConn(ep transport.Endpoint) {
	names := make(map[uint32]string) // the VMs this connection said hello for
	var subs [][]byte                // one batch's sub-ops, reused from batch to batch
	transport.ServeCtl(ep, func(req transport.Ctl) error {
		name, open := names[req.VM]
		switch {
		case req.Op == transport.OpMirrorHello:
			names[req.VM] = string(req.Payload)
			return transport.Ack(ep, req, nil)
		case !open:
			return transport.Ack(ep, req, fmt.Errorf("no mirror session for vm %d on this connection", req.VM))
		case req.Op == transport.OpMirrorBatch:
			var err error
			if subs, err = marshal.DecodeBatchInto(subs, req.Payload); err == nil {
				m := s.mirror(req.VM, name)
				for i := 0; i < len(subs) && err == nil; i++ {
					err = applyMirrorSub(m, subs[i])
				}
			}
			return transport.Ack(ep, req, err)
		case req.Op == transport.OpMirrorState:
			return transport.Answer(ep, req, transport.OpMirrorStateResp, EncodeMirrorState(s.State(req.VM)))
		}
		return fmt.Errorf("failover: %v on a mirror session", req.Op)
	})
}

// dialMirror opens a replication session for vm on the mirror host at addr.
func dialMirror(addr string, vm uint32, name string) (transport.Endpoint, error) {
	ep, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := transport.Ctl{Op: transport.OpMirrorHello, VM: vm, Payload: []byte(name)}
	if _, err := transport.RoundTrip(ep, hello, transport.OpAck); err != nil {
		ep.Close()
		return nil, err
	}
	return ep, nil
}

// FetchMirrorState dials a mirror host and retrieves vm's accumulated
// state — the first step of rehydrating a replacement guardian on a
// different machine than the one that died.
func FetchMirrorState(addr string, vm uint32) (*MirrorState, error) {
	ep, err := dialMirror(addr, vm, "")
	if err != nil {
		return nil, fmt.Errorf("failover: mirror %s: %w", addr, err)
	}
	defer ep.Close()
	rep, err := transport.RoundTrip(ep, transport.Ctl{Op: transport.OpMirrorState, VM: vm}, transport.OpMirrorStateResp)
	if err != nil {
		return nil, fmt.Errorf("failover: mirror %s: %w", addr, err)
	}
	return DecodeMirrorState(rep.Payload)
}

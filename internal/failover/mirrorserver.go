package failover

import (
	"fmt"
	"sort"
	"sync"

	"ava/internal/marshal"
	"ava/internal/transport"
)

// MirrorServer is the hosting side of the AVAM protocol: one per-VM
// MemoryMirror fed by remote guardians' replication streams, served from
// an avad started with -mirror. A replacement guardian on any machine
// fetches a VM's accumulated MirrorState back with FetchMirrorState and
// rehydrates from it exactly as it would from an in-process mirror.
type MirrorServer struct {
	mu   sync.Mutex
	vms  map[uint32]*MemoryMirror
	name map[uint32]string
}

// NewMirrorServer builds an empty mirror host.
func NewMirrorServer() *MirrorServer {
	return &MirrorServer{vms: make(map[uint32]*MemoryMirror), name: make(map[uint32]string)}
}

// Mirror returns vm's mirror, creating it empty on first use.
func (s *MirrorServer) Mirror(vm uint32) *MemoryMirror {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vms[vm]
	if !ok {
		m = NewMemoryMirror()
		s.vms[vm] = m
	}
	return m
}

// State snapshots vm's mirrored state (empty state for an unknown VM).
func (s *MirrorServer) State(vm uint32) *MirrorState {
	return s.Mirror(vm).State()
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
	type pair struct {
		vm   uint32
		m    *MemoryMirror
		name string
	}
	ps := make([]pair, 0, len(s.vms))
	for vm, m := range s.vms {
		ps = append(ps, pair{vm, m, s.name[vm]})
	}
	s.mu.Unlock()
	sort.Slice(ps, func(i, j int) bool { return ps[i].vm < ps[j].vm })
	out := make([]MirroredVM, 0, len(ps))
	for _, p := range ps {
		st := p.m.State()
		out = append(out, MirroredVM{
			VM: p.vm, Name: p.name, Entries: len(st.Entries),
			W: st.W, Epoch: st.Epoch, Objects: len(st.Objects),
		})
	}
	return out
}

// ServeConn runs one replication session: batches applied in arrival
// order, each acked by opseq with an ok bit (false = a sub-op could not
// compose and the sender must resync), state requests answered in line.
func (s *MirrorServer) ServeConn(ep transport.Endpoint) {
	defer ep.Close()
	var subs [][]byte // one batch's sub-ops, reused from batch to batch
	for {
		frame, err := ep.Recv()
		if err != nil {
			return
		}
		op, vm, opseq, payload, err := transport.DecodeMirrorFrame(frame)
		if err != nil {
			return
		}
		switch op {
		case MirrorOpHello:
			s.mu.Lock()
			s.name[vm] = string(payload)
			s.mu.Unlock()
			if err := ep.Send(transport.EncodeMirrorFrame(MirrorOpAck, vm, opseq, []byte{1})); err != nil {
				return
			}
		case MirrorOpBatch:
			ok := byte(1)
			if subs, err = marshal.DecodeBatchInto(subs, payload); err != nil {
				ok = 0
			} else {
				m := s.Mirror(vm)
				for _, sub := range subs {
					composed, err := applyMirrorSub(m, sub)
					if err != nil || !composed {
						ok = 0
						break
					}
				}
			}
			if err := ep.Send(transport.EncodeMirrorFrame(MirrorOpAck, vm, opseq, []byte{ok})); err != nil {
				return
			}
		case MirrorOpState:
			body := EncodeMirrorState(s.State(vm))
			if err := ep.Send(transport.EncodeMirrorFrame(MirrorOpStateResp, vm, opseq, body)); err != nil {
				return
			}
		default:
			return
		}
	}
}

// FetchMirrorState dials a mirror host and retrieves vm's accumulated
// state — the first step of rehydrating a replacement guardian on a
// different machine than the one that died.
func FetchMirrorState(addr string, vm uint32) (*MirrorState, error) {
	ep, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("failover: dial mirror %s: %w", addr, err)
	}
	defer ep.Close()
	if err := ep.Send(transport.EncodeMirrorFrame(MirrorOpState, vm, 0, nil)); err != nil {
		return nil, fmt.Errorf("failover: mirror %s: %w", addr, err)
	}
	frame, err := ep.Recv()
	if err != nil {
		return nil, fmt.Errorf("failover: mirror %s: %w", addr, err)
	}
	op, _, _, payload, err := transport.DecodeMirrorFrame(frame)
	if err != nil || op != MirrorOpStateResp {
		return nil, fmt.Errorf("failover: mirror %s sent an unexpected reply", addr)
	}
	return DecodeMirrorState(payload)
}

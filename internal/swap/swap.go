// Package swap implements AvA's buffer-object-granularity device-memory
// swapping (§4.3): when a guest's allocation would exhaust device memory,
// the API server evicts least-recently-used buffer objects to host memory
// and retries, so out-of-memory conditions caused by one VM are never
// exposed to contending guests. Swapping at buffer granularity — rather
// than pages or chunks — needs no driver modification: eviction and
// fault-in use the silo's ordinary snapshot/restore operations.
package swap

import (
	"sync"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/server"
)

// Stats counts swap activity.
type Stats struct {
	Evictions    uint64
	BytesEvicted uint64
	OOMRescues   uint64 // OOM events where eviction made the retry succeed
	Failures     uint64 // OOM events with nothing left to evict
}

// Manager implements the server's OOM policy over an OpenCL silo.
type Manager struct {
	silo *cl.Silo

	mu    sync.Mutex
	stats Stats
	// MinEvict is the minimum bytes to free per OOM event; evicting only
	// exactly-enough would thrash under a tight loop of allocations.
	MinEvict uint64
}

// NewManager builds a swap manager for silo.
func NewManager(silo *cl.Silo) *Manager {
	return &Manager{silo: silo, MinEvict: 1 << 20}
}

// Install hooks the manager into a registry as its OOM policy.
func (m *Manager) Install(reg *server.Registry) {
	reg.OnOOM = func(ctx *server.Context, fd *cava.FuncDesc) bool {
		return m.OnOOM(ctx, fd)
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// OnOOM evicts LRU resident buffers until at least MinEvict bytes were
// freed (or nothing remains to evict) and reports whether a retry is worth
// attempting.
func (m *Manager) OnOOM(ctx *server.Context, fd *cava.FuncDesc) bool {
	var freed uint64
	for freed < m.minEvict() {
		victim := cl.LRUVictim(m.silo.LiveBuffers())
		if victim == nil {
			break
		}
		size := victim.Size()
		if err := m.silo.EvictBuffer(victim); err != nil {
			break
		}
		freed += size
		m.mu.Lock()
		m.stats.Evictions++
		m.stats.BytesEvicted += size
		m.mu.Unlock()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if freed == 0 {
		m.stats.Failures++
		return false
	}
	m.stats.OOMRescues++
	return true
}

func (m *Manager) minEvict() uint64 {
	if m.MinEvict == 0 {
		return 1
	}
	return m.MinEvict
}

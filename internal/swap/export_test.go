package swap

// EvictAll force-evicts every resident buffer: the tests' way to put all
// device memory on the host at once.
func (m *Manager) EvictAll() (int, error) {
	n := 0
	for _, b := range m.silo.LiveBuffers() {
		if !b.Resident() {
			continue
		}
		if err := m.silo.EvictBuffer(b); err != nil {
			return n, err
		}
		n++
		m.mu.Lock()
		m.stats.Evictions++
		m.stats.BytesEvicted += b.Size()
		m.mu.Unlock()
	}
	return n, nil
}

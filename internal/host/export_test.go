package host

// TrackedConns reports how many accepted connections the host's listeners
// still track (test hook: a dropped connection must leave the set).
func (s *Server) TrackedConns() int {
	n := 0
	for _, l := range s.listeners {
		l.mu.Lock()
		n += len(l.eps)
		l.mu.Unlock()
	}
	return n
}

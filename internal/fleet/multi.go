package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// MultiClient is a Locator over several registry replicas: writes fan out
// to every replica, reads merge the replies of however many answered
// (subject to a quorum floor). Because it satisfies Locator, everything
// built on the single-registry seam — FleetDialer, placement policies,
// announcers — works against an HA registry set unchanged.
//
// The consistency model matches the registry itself: TTL'd last-write-wins
// soft state, not consensus. Announces reach the replicas that are up and
// gossip repairs the ones that were not; a read is correct if it sees at
// least one replica that heard from the member within a TTL.
type MultiClient struct {
	locs   []Locator
	quorum int

	mu sync.Mutex
}

// NewMultiClient builds a quorum locator over the given replicas. The
// default read quorum is 1 — any reachable replica serves the fleet view,
// which is the right availability/staleness trade for TTL'd soft state.
// Raise it with SetQuorum when a partitioned minority replica must not be
// trusted alone.
func NewMultiClient(locs ...Locator) *MultiClient {
	return &MultiClient{locs: locs, quorum: 1}
}

// DialRegistries builds a MultiClient of TCP clients, one per registry
// address.
func DialRegistries(addrs ...string) *MultiClient {
	locs := make([]Locator, 0, len(addrs))
	for _, a := range addrs {
		locs = append(locs, DialRegistry(a))
	}
	return NewMultiClient(locs...)
}

// SetQuorum sets how many replicas must answer a Live read before the
// merged view is trusted; values are clamped to [1, len(replicas)].
func (mc *MultiClient) SetQuorum(q int) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if q < 1 {
		q = 1
	}
	if q > len(mc.locs) {
		q = len(mc.locs)
	}
	mc.quorum = q
}

// Announce implements Locator: the member is announced to every replica,
// and the announce succeeds if any replica took it — the others catch up
// by gossip or the next heartbeat.
func (mc *MultiClient) Announce(m Member) error {
	return mc.fanout("announce", func(l Locator) error { return l.Announce(m) })
}

// Deregister implements Locator with the same any-replica-success rule.
func (mc *MultiClient) Deregister(id string) error {
	return mc.fanout("deregister", func(l Locator) error { return l.Deregister(id) })
}

func (mc *MultiClient) fanout(op string, f func(Locator) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(mc.locs))
	for i, l := range mc.locs {
		wg.Add(1)
		go func(i int, l Locator) {
			defer wg.Done()
			errs[i] = f(l)
		}(i, l)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("fleet: %s failed on all %d registries: %w", op, len(mc.locs), firstErr)
}

// Live implements Locator: every replica is queried concurrently, at least
// quorum of them must answer, and the answers are merged — union deduped
// by member ID (first replica in construction order wins a conflict, so a
// single call is deterministic) and re-ranked with the fleet's health
// ordering, exactly as a single registry would rank them.
func (mc *MultiClient) Live(api string, exclude ...string) ([]Member, error) {
	mc.mu.Lock()
	quorum := mc.quorum
	mc.mu.Unlock()

	var wg sync.WaitGroup
	views := make([][]Member, len(mc.locs))
	errs := make([]error, len(mc.locs))
	for i, l := range mc.locs {
		wg.Add(1)
		go func(i int, l Locator) {
			defer wg.Done()
			views[i], errs[i] = l.Live(api, exclude...)
		}(i, l)
	}
	wg.Wait()

	answered := 0
	var firstErr error
	seen := make(map[string]bool)
	var ms []Member
	for i := range mc.locs {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		answered++
		for _, m := range views[i] {
			if seen[m.ID] {
				continue
			}
			seen[m.ID] = true
			ms = append(ms, m)
		}
	}
	if answered < quorum {
		return nil, fmt.Errorf("fleet: %d/%d registries answered, quorum is %d: %w",
			answered, len(mc.locs), quorum, firstErr)
	}
	sort.Slice(ms, func(i, j int) bool { return Less(ms[i], ms[j]) })
	return ms, nil
}

// Close releases every underlying TCP client (replicas that are not
// *Client are left alone).
func (mc *MultiClient) Close() {
	for _, l := range mc.locs {
		if c, ok := l.(*Client); ok {
			c.Close()
		}
	}
}

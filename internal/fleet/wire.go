package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ava/internal/averr"
	"ava/internal/backoff"
	"ava/internal/transport"
)

// The wire protocol is one control frame per operation (transport's
// envelope: the op byte says announce, deregister, gossip or live),
// answered by one frame, over the same length-prefixed transport the call
// path uses. Only the bodies are JSON: discovery traffic is tiny and rare
// next to call traffic, so readability wins over marshalling speed there.

// wireBody is a request's JSON payload; each op reads the fields it needs.
type wireBody struct {
	Member  Member        `json:"member,omitempty"`
	ID      string        `json:"id,omitempty"`
	API     string        `json:"api,omitempty"`
	Exclude []string      `json:"exclude,omitempty"`
	Entries []GossipEntry `json:"entries,omitempty"`
}

// ServeConn answers registry requests on one established connection until
// it drops. Each connection may issue any number of requests; avad's
// announcer keeps one open for its heartbeat stream. A request whose body
// does not parse, or whose op is not a registry op, is refused with an
// ok=0 ack; a frame that is not a control frame ends the connection. The
// accept loop around it is internal/host.Registry, which tracks the
// endpoints it hands in so a Kill can sever them like a machine crash.
func ServeConn(ep transport.Endpoint, reg *Registry) {
	transport.ServeCtl(ep, func(req transport.Ctl) error {
		var body wireBody
		err := json.Unmarshal(req.Payload, &body)
		switch {
		case req.Op < transport.OpFleetAnnounce || req.Op > transport.OpFleetLive:
			err = fmt.Errorf("%v is not a registry request", req.Op)
		case err != nil:
		case req.Op == transport.OpFleetAnnounce:
			reg.Announce(body.Member)
		case req.Op == transport.OpFleetDeregister:
			reg.Deregister(body.ID)
		case req.Op == transport.OpFleetGossip:
			reg.Merge(body.Entries)
		case req.Op == transport.OpFleetLive:
			ms, _ := reg.Live(body.API, body.Exclude...)
			out, _ := json.Marshal(ms)
			return transport.Answer(ep, req, transport.OpFleetMembers, out)
		}
		return transport.Ack(ep, req, err)
	})
}

// Client is a Locator over a TCP connection to a served registry. It
// redials transparently after a connection failure, pacing reconnect
// attempts with a jittered backoff series, so a registry restart does not
// kill every announcer in the fleet: the client rides out the restart
// window instead of failing on the first dropped frame.
type Client struct {
	addr string

	mu    sync.Mutex
	ep    transport.Endpoint
	retry *backoff.Backoff
}

// DialRegistry connects to a registry served at addr. The connection is
// established lazily on the first request.
func DialRegistry(addr string) *Client {
	return &Client{addr: addr, retry: backoff.New(backoff.Config{})}
}

// SetRetry replaces the client's reconnect pacing — the same jittered
// shape the failover layer uses. Call before the first request; a fixed
// Seed makes the retry schedule reproducible in tests.
func (c *Client) SetRetry(cfg backoff.Config) {
	c.mu.Lock()
	c.retry = backoff.New(cfg)
	c.mu.Unlock()
}

// Close releases the client's connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ep != nil {
		c.ep.Close()
		c.ep = nil
	}
}

// roundTrip sends one request and awaits its want-op response, redialing
// under a bounded jittered-backoff series if the cached connection has gone
// stale. All registry operations are idempotent (announce and deregister
// are last-write-wins, live is a read), so retrying a whole request after a
// mid-flight connection loss is safe. A categorized error — refused, a
// reply that does not answer the request, no answer within the control time
// bound — is not retried: the registry answered (or is stalled, not gone).
func (c *Client) roundTrip(op, want transport.Op, body wireBody) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var series *backoff.Series
	for {
		var err error
		if c.ep == nil {
			c.ep, err = transport.Dial(c.addr)
		}
		if err == nil {
			var rep transport.Ctl
			if rep, err = transport.RoundTrip(c.ep, transport.Ctl{Op: op, Payload: payload}, want); err == nil {
				return rep.Payload, nil
			}
			if !errors.Is(err, transport.ErrRefused) { // the stream's position is unknown
				c.ep.Close()
				c.ep = nil
			}
		}
		err = fmt.Errorf("fleet: registry %s: %w", c.addr, err)
		if averr.CategoryOf(err) != "" {
			return nil, err
		}
		if series == nil {
			series = c.retry.Series()
		}
		d, ok := series.Next()
		if !ok {
			return nil, fmt.Errorf("%w (unreachable after %v of retries)", err, series.Spent())
		}
		time.Sleep(d)
	}
}

// Announce implements Locator.
func (c *Client) Announce(m Member) error {
	_, err := c.roundTrip(transport.OpFleetAnnounce, transport.OpAck, wireBody{Member: m})
	return err
}

// Deregister implements Locator.
func (c *Client) Deregister(id string) error {
	_, err := c.roundTrip(transport.OpFleetDeregister, transport.OpAck, wireBody{ID: id})
	return err
}

// Live implements Locator.
func (c *Client) Live(api string, exclude ...string) ([]Member, error) {
	out, err := c.roundTrip(transport.OpFleetLive, transport.OpFleetMembers, wireBody{API: api, Exclude: exclude})
	var ms []Member
	if err == nil {
		err = json.Unmarshal(out, &ms)
	}
	return ms, err
}

// Gossip implements GossipPeer: it pushes a registry table export to the
// remote registry, which merges it last-write-wins.
func (c *Client) Gossip(entries []GossipEntry) error {
	_, err := c.roundTrip(transport.OpFleetGossip, transport.OpAck, wireBody{Entries: entries})
	return err
}

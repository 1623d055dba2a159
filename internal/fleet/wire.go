package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ava/internal/backoff"
	"ava/internal/transport"
)

// The wire protocol is one JSON request frame per operation, answered by
// one JSON response frame, over the same length-prefixed transport the
// call path uses. Discovery traffic is tiny and rare next to call traffic,
// so readability wins over marshalling speed here.

type wireReq struct {
	Op      string        `json:"op"` // "announce", "deregister", "live", "gossip"
	Member  Member        `json:"member,omitempty"`
	ID      string        `json:"id,omitempty"`
	API     string        `json:"api,omitempty"`
	Exclude []string      `json:"exclude,omitempty"`
	Entries []GossipEntry `json:"entries,omitempty"`
}

type wireResp struct {
	OK      bool     `json:"ok"`
	Err     string   `json:"err,omitempty"`
	Members []Member `json:"members,omitempty"`
}

// ServeConn answers registry requests on one established connection until
// it drops. Each connection may issue any number of requests; avad's
// announcer keeps one open for its heartbeat stream. The accept loop around
// it is internal/host.Registry, which tracks the endpoints it hands in so a
// Kill can sever them like a machine crash.
func ServeConn(ep transport.Endpoint, reg *Registry) {
	defer ep.Close()
	for {
		frame, err := ep.Recv()
		if err != nil {
			return
		}
		var req wireReq
		resp := wireResp{OK: true}
		if err := json.Unmarshal(frame, &req); err != nil {
			resp = wireResp{Err: fmt.Sprintf("malformed request: %v", err)}
		} else {
			switch req.Op {
			case "announce":
				reg.Announce(req.Member)
			case "deregister":
				reg.Deregister(req.ID)
			case "live":
				resp.Members, _ = reg.Live(req.API, req.Exclude...)
			case "gossip":
				reg.Merge(req.Entries)
			default:
				resp = wireResp{Err: fmt.Sprintf("unknown op %q", req.Op)}
			}
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return
		}
		if err := ep.Send(out); err != nil {
			return
		}
	}
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

// roundTrip sends one request and awaits its response, redialing under a
// bounded jittered-backoff series if the cached connection has gone stale.
// All registry operations are idempotent (announce and deregister are
// last-write-wins, live is a read), so retrying a whole request after a
// mid-flight connection loss is safe. Protocol-level failures — a
// malformed response or an error verdict from the registry — are not
// retried: the registry answered, it just said no.
func (c *Client) roundTrip(req wireReq) (wireResp, error) {
	frame, err := json.Marshal(req)
	if err != nil {
		return wireResp{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var series *backoff.Series
	for {
		resp, retryable, err := c.attemptLocked(frame)
		if err == nil || !retryable {
			return resp, err
		}
		if series == nil {
			series = c.retry.Series()
		}
		d, ok := series.Next()
		if !ok {
			return wireResp{}, fmt.Errorf("fleet: registry %s unreachable after %v of retries: %w",
				c.addr, series.Spent(), err)
		}
		time.Sleep(d)
	}
}

// attemptLocked makes one dial-send-recv attempt; retryable reports whether
// the failure was a transport loss worth another attempt.
func (c *Client) attemptLocked(frame []byte) (wireResp, bool, error) {
	if c.ep == nil {
		ep, err := transport.Dial(c.addr)
		if err != nil {
			return wireResp{}, true, fmt.Errorf("fleet: dial registry %s: %w", c.addr, err)
		}
		c.ep = ep
	}
	if err := c.ep.Send(frame); err != nil {
		c.dropLocked()
		return wireResp{}, true, fmt.Errorf("fleet: registry %s: %w", c.addr, err)
	}
	reply, err := c.ep.Recv()
	if err != nil {
		c.dropLocked()
		return wireResp{}, true, fmt.Errorf("fleet: registry %s: %w", c.addr, err)
	}
	var resp wireResp
	if err := json.Unmarshal(reply, &resp); err != nil {
		c.dropLocked()
		return wireResp{}, false, fmt.Errorf("fleet: malformed registry response: %w", err)
	}
	if resp.Err != "" {
		return wireResp{}, false, fmt.Errorf("fleet: registry: %s", resp.Err)
	}
	return resp, false, nil
}

func (c *Client) dropLocked() {
	if c.ep != nil {
		c.ep.Close()
		c.ep = nil
	}
}

// Announce implements Locator.
func (c *Client) Announce(m Member) error {
	_, err := c.roundTrip(wireReq{Op: "announce", Member: m})
	return err
}

// Deregister implements Locator.
func (c *Client) Deregister(id string) error {
	_, err := c.roundTrip(wireReq{Op: "deregister", ID: id})
	return err
}

// Live implements Locator.
func (c *Client) Live(api string, exclude ...string) ([]Member, error) {
	resp, err := c.roundTrip(wireReq{Op: "live", API: api, Exclude: exclude})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// Gossip implements GossipPeer: it pushes a registry table export to the
// remote registry, which merges it last-write-wins.
func (c *Client) Gossip(entries []GossipEntry) error {
	_, err := c.roundTrip(wireReq{Op: "gossip", Entries: entries})
	return err
}

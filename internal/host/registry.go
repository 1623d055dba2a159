package host

import (
	"io"
	"log"
	"sync"
	"time"

	"ava/internal/clock"
	"ava/internal/ctlplane"
	"ava/internal/fleet"
	"ava/internal/transport"
)

// RegistryConfig describes one fleet-registry host. The zero value of
// every field but Listen is usable: default TTL, no peers, silent.
type RegistryConfig struct {
	// Listen is the address registry clients dial (port 0 picks one).
	Listen string
	// TTL is the member liveness TTL; 0 selects fleet.DefaultTTL.
	TTL time.Duration
	// Sweep is how often expired members are reclaimed; 0 selects one
	// minute. Queries already ignore expired members; the sweep only
	// keeps a long-lived table from accreting dead entries.
	Sweep time.Duration
	// Peers are the other registry replicas' addresses; the member table
	// is gossiped to each of them.
	Peers []string
	// GossipEvery is the gossip push interval; 0 selects fleet TTL/4.
	GossipEvery time.Duration
	// Log receives lifecycle events; nil is silent.
	Log *log.Logger
}

// Registry is one fleet-registry host: a fleet.Registry served over the
// wire, gossiping to its peer replicas and sweeping expired members.
type Registry struct {
	reg *fleet.Registry
	log *log.Logger
	l   *listener

	peers    []*fleet.Client
	gossiper *fleet.Gossiper

	stopOnce sync.Once
	stop     chan struct{} // ends the sweep
	sweeper  sync.WaitGroup
	done     chan struct{}
}

// StartRegistry binds the listener and begins serving an empty registry.
// The returned Registry runs until Shutdown or Kill.
func StartRegistry(cfg RegistryConfig) (*Registry, error) {
	r := &Registry{
		reg:  fleet.NewRegistry(cfg.TTL, nil),
		log:  cfg.Log,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if r.log == nil {
		r.log = log.New(io.Discard, "", 0)
	}
	var err error
	r.l, err = listen(cfg.Listen, func(ep transport.Endpoint) { fleet.ServeConn(ep, r.reg) })
	if err != nil {
		return nil, err
	}
	if len(cfg.Peers) > 0 {
		gps := make([]fleet.GossipPeer, len(cfg.Peers))
		for i, a := range cfg.Peers {
			c := fleet.DialRegistry(a)
			r.peers = append(r.peers, c)
			gps[i] = c
		}
		r.gossiper = fleet.StartGossip(r.reg, gps, cfg.GossipEvery, nil)
	}
	sweep := cfg.Sweep
	if sweep <= 0 {
		sweep = time.Minute
	}
	r.sweeper.Add(1)
	go func() {
		defer r.sweeper.Done()
		for clock.Wait(clock.NewReal(), sweep, r.stop) {
			if n := r.reg.Expire(); n > 0 {
				r.log.Printf("reclaimed %d expired member(s)", n)
			}
		}
	}()
	return r, nil
}

// Addr returns the bound listener address.
func (r *Registry) Addr() string { return r.l.addr() }

// Shutdown stops accepting and closes every client connection in order,
// returning once they have ended. Registry clients hold their connection
// open between requests, so there is nothing to wait out: the table is
// soft state and clients redial a restarted registry transparently.
func (r *Registry) Shutdown() { r.halt(false) }

// Kill stops the registry the way a SIGKILL of its process would: the
// accept socket and every established client stream are severed.
func (r *Registry) Kill() { r.halt(true) }

func (r *Registry) halt(kill bool) {
	r.stopOnce.Do(func() {
		defer close(r.done)
		r.l.stop()
		if kill {
			r.l.severAll()
		}
		close(r.stop)
		if r.gossiper != nil {
			r.gossiper.Close()
		}
		for _, c := range r.peers {
			c.Close()
		}
		r.sweeper.Wait()
		r.l.drain(0)
	})
	<-r.done
}

// Wait blocks until a Shutdown or Kill has completed.
func (r *Registry) Wait() { <-r.done }

// CtlConfig wires a control endpoint over the registry: the full admin
// table as the fleet section and a drain hook that shuts the registry
// down.
func (r *Registry) CtlConfig() ctlplane.Config {
	return ctlplane.Config{
		Ident: ctlplane.Ident{Service: "avaregd", Addr: r.Addr()},
		Fleet: r.reg.Members,
		Drain: func() error {
			r.log.Printf("ctl drain requested")
			go r.Shutdown()
			return nil
		},
	}
}

// Command avaregd is the fleet registry daemon: the discovery service
// behind cross-host failover. avad instances announce themselves here
// (-announce on avad); registry-backed failover dialers query it for the
// best live peer when a serving host dies.
//
// Usage:
//
//	avaregd -listen 127.0.0.1:7400
//	avaregd -listen :7400 -ttl 5s
//
// The registry is soft state: members expire when their heartbeats stop,
// so a restarted avaregd repopulates within one announce interval and
// announcers redial transparently (fleet.Client). Nothing is persisted.
//
// For an HA control plane, run several registries and point each at the
// others with -peers (avaregd -listen :7400 -peers reg-b:7400,reg-c:7400):
// each pushes its full member table to its peers on a timer, merged
// last-write-wins by announce time with TTL'd tombstones, so an announce
// that reached any one replica reaches all of them within a gossip
// interval. Announcers name every replica (avad -announce a:7400,b:7400)
// and dialers quorum-read through fleet.MultiClient.
//
// With -ctl, avaregd serves the HTTP control endpoint (internal/ctlplane):
// GET /stats returns the registry's full admin table — every member with
// liveness, not just the live set a dialer queries — so
// `avactl stats -host <addr>` is the fleet-wide inspection entry point,
// and `avactl drain` stops the registry gracefully.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ava/internal/ctlplane"
	"ava/internal/host"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7400", "address to listen on")
		ttl      = flag.Duration("ttl", 0, "member liveness TTL (default: fleet.DefaultTTL)")
		sweep    = flag.Duration("sweep", time.Minute, "how often to reclaim expired members")
		ctl      = flag.String("ctl", "", "HTTP control/metrics endpoint address (empty = disabled)")
		ctlToken = flag.String("ctl-token", "", "shared token required on ctl POSTs (empty = open)")
		peers    = flag.String("peers", "", "comma-separated peer registry addresses to gossip the member table to")
		gossipEv = flag.Duration("gossip-every", 0, "gossip push interval (default: fleet TTL/4)")
	)
	flag.Parse()

	log.SetPrefix("avaregd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	cfg := host.RegistryConfig{
		Listen: *listen, TTL: *ttl, Sweep: *sweep, GossipEvery: *gossipEv,
		Peers: strings.FieldsFunc(*peers, func(r rune) bool { return r == ',' || r == ' ' }),
		Log:   log.Default(),
	}
	r, err := host.StartRegistry(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(cfg.Peers) > 0 {
		log.Printf("gossiping member table to %d peer(s): %s", len(cfg.Peers), strings.Join(cfg.Peers, ", "))
	}

	var cs *ctlplane.Server
	if *ctl != "" {
		cc := r.CtlConfig()
		cc.Token = *ctlToken
		cs = ctlplane.New(cc)
		ctlAddr, err := cs.Start(*ctl)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ctl listening on %s", ctlAddr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		log.Printf("%v: shutting down", s)
		r.Shutdown()
	}()

	log.Printf("serving fleet registry on %s", r.Addr())
	r.Wait()
	if cs != nil {
		cs.Close()
	}
	log.Printf("shut down cleanly")
}

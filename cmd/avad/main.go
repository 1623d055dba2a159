// Command avad is the standalone AvA API server: an unprivileged process
// that executes forwarded accelerator API calls over TCP. Pointing a
// router at a remote avad yields the disaggregated-accelerator
// configuration of §4.1 (LegoOS-style), with the accelerator on a machine
// the guest never sees. It is flag parsing over internal/host, which
// documents the connection lifecycle, eviction and the two ways to stop.
//
// Usage:
//
//	avad -listen 127.0.0.1:7272 -api opencl
//	avad -listen :7272 -api mvnc -sticks 2
//	avad -listen :7272 -api opencl -announce 127.0.0.1:7400 -id gpu-host-a
//
// With -announce, avad registers itself with a fleet registry (cmd/avaregd)
// and heartbeats until shutdown, making it a failover target for guardians
// using a registry-backed dialer. Several registries may be named
// comma-separated (-announce reg-a:7400,reg-b:7400): announces fan out to
// every replica and reads quorum-merge (fleet.MultiClient), so losing any
// single registry is invisible. On SIGTERM or SIGINT avad drains under the
// -drain budget: guests observe an orderly end-of-stream, never a sever.
//
// With -ctl, avad serves the HTTP control/metrics endpoint
// (internal/ctlplane) on the given address — conventionally :7273 — so
// `avactl stats -host <addr>` reads live per-VM counters (a connection
// that died severed keeps its counters visible) and `avactl drain`
// triggers the same graceful sequence as SIGTERM.
//
// With -mirror, avad additionally serves a replication mirror host
// (failover.MirrorServer) on the given address: remote guardians stream
// their shadow logs here (FailoverConfig.Replication.RemoteAddr), and a replacement
// guardian on any machine rehydrates with failover.FetchMirrorState. The
// per-VM replication standing appears on the ctl endpoint as GET /mirror.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ava/internal/cl"
	"ava/internal/ctlplane"
	"ava/internal/devsim"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/mvnc"
	"ava/internal/qat"
	"ava/internal/sched"
	"ava/internal/server"
	"ava/internal/swap"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7272", "address to listen on")
		api      = flag.String("api", "opencl", "API to serve: opencl, mvnc or qat")
		memMB    = flag.Uint64("mem", 4096, "device memory in MiB (opencl)")
		cus      = flag.Int("cus", 8, "compute units (opencl)")
		sticks   = flag.Int("sticks", 1, "device count (mvnc sticks / qat engines)")
		withSwap = flag.Bool("swap", true, "enable buffer-granularity memory swapping (opencl)")

		announce  = flag.String("announce", "", "comma-separated fleet registry addresses to announce to (empty = standalone)")
		id        = flag.String("id", "", "fleet member identity (default: the advertised address)")
		advertise = flag.String("advertise", "", "address peers dial for this host (default: the bound listen address)")
		every     = flag.Duration("announce-every", 0, "heartbeat interval (default: fleet TTL/4)")
		drain     = flag.Duration("drain", 5*time.Second, "in-flight drain budget on SIGTERM/SIGINT")
		ctl       = flag.String("ctl", "", "HTTP control/metrics endpoint address, e.g. :7273 (empty = disabled)")
		ctlToken  = flag.String("ctl-token", "", "shared token required on ctl POSTs (empty = open)")
		mirror    = flag.String("mirror", "", "serve a replication mirror host on this address (empty = disabled)")

		rebalance = flag.Bool("rebalance", false, "shed sustained load skew by evicting VMs toward lighter fleet peers (requires -announce)")
		rebEvery  = flag.Duration("rebalance-interval", 2*time.Second, "rebalance evaluation interval")
		rebSkew   = flag.Float64("rebalance-skew", 0, "load-EWMA-over-fleet-mean ratio that marks this host hot (0 = the rebalancer's default)")
		rebMax    = flag.Int("rebalance-max", 0, "migration budget per sliding window (0 = the rebalancer's default)")
	)
	flag.Parse()

	reg, err := buildRegistry(*api, *memMB, *cus, *sticks, *withSwap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avad: %v\n", err)
		os.Exit(2)
	}
	if *rebalance && *announce == "" {
		fmt.Fprintln(os.Stderr, "avad: -rebalance requires -announce")
		os.Exit(2)
	}

	log.SetPrefix("avad: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	cfg := host.Config{
		Listen: *listen, API: *api, ID: *id, Advertise: *advertise,
		AnnounceEvery: *every, Drain: *drain, Mirror: *mirror,
		Log: log.Default(),
	}
	registries := strings.FieldsFunc(*announce, func(r rune) bool { return r == ',' || r == ' ' })
	if len(registries) > 0 {
		loc := fleet.DialRegistries(registries...)
		defer loc.Close()
		cfg.Locator = loc
	}
	if *rebalance {
		cfg.Rebalance = &sched.Config{Interval: *rebEvery, SkewRatio: *rebSkew, MaxPerWindow: *rebMax}
		log.Printf("rebalancing enabled (interval %v)", *rebEvery)
	}

	h, err := host.Start(server.New(reg), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(registries) > 0 {
		log.Printf("announcing to %d fleet registry replica(s): %s", len(registries), *announce)
	}
	if *mirror != "" {
		log.Printf("mirror host serving on %s", h.MirrorAddr())
	}

	var cs *ctlplane.Server
	if *ctl != "" {
		cc := h.CtlConfig()
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
		log.Printf("%v: draining (budget %v)", s, *drain)
		h.Shutdown()
	}()

	log.Printf("serving %s on %s", *api, h.Addr())
	h.Wait()
	if cs != nil {
		// Closed after the drain completes, so a drain acknowledgement
		// flushes and final counters stay scrapeable to the very end.
		cs.Close()
	}
	log.Printf("shut down cleanly")
}

// buildRegistry assembles the silo and handler registry for one API. Each
// BindServer installs the API's object-state adapter (QAT declares no object
// state and has none), so a guardian on another host can checkpoint this
// server — one marshal.FuncSnapshot per checkpoint, full state or a delta —
// and restore mirrored object state into it (FuncRestore).
func buildRegistry(api string, memMB uint64, cus, sticks int, withSwap bool) (*server.Registry, error) {
	switch api {
	case "opencl":
		reg := server.NewRegistry(cl.Descriptor())
		silo := cl.NewSilo(cl.Config{
			Devices: []devsim.Config{{
				Name:         "avad-gpu0",
				MemoryBytes:  memMB << 20,
				ComputeUnits: cus,
			}},
		})
		cl.BindServer(reg, silo)
		if withSwap {
			swap.NewManager(silo).Install(reg)
		}
		return reg, nil
	case "mvnc":
		reg := server.NewRegistry(mvnc.Descriptor())
		mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: sticks}))
		return reg, nil
	case "qat":
		reg := server.NewRegistry(qat.Descriptor())
		qat.BindServer(reg, qat.NewSilo(sticks))
		return reg, nil
	default:
		return nil, fmt.Errorf("unknown -api %q (opencl, mvnc, qat)", api)
	}
}

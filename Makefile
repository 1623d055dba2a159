# Pre-merge gate: formatting, static checks, build, race-enabled tests.
# ROADMAP.md's tier-1 line is the subset `go build ./... && go test ./...`;
# `make check` is the stricter local/CI version of the same gate.

GO ?= go
GATES = rebind-gate target-gate state-gate decode-gate wire-gate layer-gate stub-gate adapter-gate payload-gate record-gate retain-gate release-gate binding-gate hop-gate client-gate

.PHONY: check fmt vet gates $(GATES) gen build test allocs bench bench-smoke examples-smoke bench-json benchmark chaos fuzz-smoke ctl-smoke sched-smoke ha-smoke

check: fmt vet gates build test allocs bench-smoke examples-smoke ctl-smoke sched-smoke ha-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The grep gates ("there is one of these": one rebind, one recovery target,
# one guardian state machine, one decoder per frame kind, one assembler,
# one-way layering, one generated binding layer, one owner of object state,
# one release of a dead incarnation's objects, one source of payload
# buffers, one record log, one retained copy per call, the silo as the
# Implementation, one interposition hop between router and server link, one
# generated guest client)
# are rows of the table in scripts/gates.sh; check runs them all at once, and
# each old target name runs its own row.
gates:
	@GO="$(GO)" sh scripts/gates.sh

$(GATES):
	@GO="$(GO)" sh scripts/gates.sh $(@:-gate=)

# Regenerate every checked-in output of the stack generator — guest stubs
# and API server, one file per package — from its specification, through
# cmd/cava. Each package's golden test (TestGeneratedStubsAreCurrent /
# TestGeneratedFileIsCurrent) fails while the committed file and a fresh
# generation differ.
gen:
	$(GO) run ./cmd/cava -spec internal/cl/opencl.ava -pkg cl -o internal/cl/stubs_gen.go
	$(GO) run ./cmd/cava -spec internal/mvnc/mvnc.ava -pkg mvnc -o internal/mvnc/stubs_gen.go
	$(GO) run ./cmd/cava -spec internal/qat/qat.ava -pkg qat -o internal/qat/stubs_gen.go
	$(GO) run ./cmd/cava -spec internal/gen/toydev/toydev.ava -pkg toydev -o internal/gen/toydev/toydev.go

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Alloc-budget and frame-pool tests, one per hot-path layer, plus the bytes
# a guardian checkpoint may allocate and the zero budget of a committing
# checkpoint's shadow-log compaction (testing.AllocsPerRun or MemStats;
# files tagged `//go:build !race`). The race
# detector's instrumentation allocates and sync.Pool drops entries at random
# under it, so `test` above compiles these out; this target runs them once
# without -race so a regression in allocations per call fails `make check`.
allocs:
	$(GO) test -count=1 -run 'Alloc|BothHit' \
		./internal/marshal/ ./internal/framebuf/ ./internal/transport/ ./internal/hv/ ./internal/server/ ./internal/guest/ ./internal/cl/ \
		./internal/failover/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, no unit tests: catches benchmarks that
# stopped compiling or panic without paying for a full measurement run.
# Also exercises the overload-control (E11), failover (E12), cross-host
# failover (E13), zero-copy/copy-cost (E14), cluster-rebalancing (E15) and
# replicated-control-plane (E16) experiments end to end, since their
# assertions live in the table generation, not in a Benchmark func.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...
	$(GO) run ./cmd/avabench -exp overload -reps 1
	$(GO) run ./cmd/avabench -exp failover -reps 1
	$(GO) run ./cmd/avabench -exp crosshost -reps 1
	$(GO) run ./cmd/avabench -exp copycost -reps 1
	$(GO) run ./cmd/avabench -exp rebalance -reps 1
	$(GO) run ./cmd/avabench -exp ha -reps 1

# Example smoke: run each self-contained example and require a clean exit
# whose last line reports what it verified. disaggregated is driven against
# a real avad by ctl-smoke instead.
EXAMPLES = quickstart vectoradd multitenant migration

examples-smoke:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		out="$$($(GO) run ./examples/$$e)" || { echo "$$out"; echo "examples/$$e: non-zero exit"; exit 1; }; \
		last="$$(printf '%s\n' "$$out" | tail -n 1)"; \
		echo "$$last"; \
		case "$$last" in *verified*) ;; *) echo "$$out"; echo "examples/$$e: last line reports nothing verified"; exit 1;; esac; \
	done

# Operability smoke: boot a real avad with -ctl, scrape it with avactl,
# drain it over HTTP, and require a clean exit (scripts/ctl_smoke.sh).
ctl-smoke:
	GO="$(GO)" sh scripts/ctl_smoke.sh

# Scheduling smoke: boot a real avaregd and two announced avads, run the
# avaplace probe, and require exactly one placement decision
# (scripts/sched_smoke.sh).
sched-smoke:
	GO="$(GO)" sh scripts/sched_smoke.sh

# HA smoke: two gossiping avaregd replicas, multi-registry announce, a
# mirror host scraped via avactl, and placement surviving a registry
# SIGKILL through the surviving replica (scripts/ha_smoke.sh).
ha-smoke:
	GO="$(GO)" sh scripts/ha_smoke.sh

# Full experiment sweep with machine-readable output: one BENCH_<exp>.json
# per experiment lands in bench-out/ alongside the printed tables.
bench-json:
	mkdir -p bench-out
	$(GO) run ./cmd/avabench -json bench-out

# The repository benchmark BENCHMARK.json declares: four long workloads
# with paired-native ratios and a layer-replay trace (benchmark/README.md).
benchmark:
	bash benchmark/run.sh

# Chaos gate: every fault-injection and kill-the-server test under -race,
# with fixed seeds (the tests pin their own Flaky/backoff seeds), so CI
# reproduces the same failure schedules run to run. CrossHost covers the
# whole-machine kill with fleet-registry failover to a peer host;
# Rebalance covers skewed-load live migration (fixed skew, deterministic
# decisions) through the same guardian machinery; Mirror/Gossip/MultiClient
# /WireClient cover the replicated control plane — remote mirror hosts
# killed mid-stream, registry replicas killed under quorum reads, gossip
# repair after partitioned announces; Host covers the production host
# runtime (internal/host) those tests and experiments all run — hello
# form, eviction, drain vs. kill, and the same-host reconnect that must
# replay into a clean context; Shadow/Replay/Rebind cover the recovery core
# itself — the shadow log's keep rules and its mirror property test, the
# one replay engine over the link, and migration (./internal/migrate/);
# Sweep severs the south link at every send of a short workload, and the
# replacement too, over in-proc, ring and a loopback host.Server (replay
# and snapshot control calls are sends as well on every one)
# (internal/stacktest/kill_sweep_test.go) — a failing row prints its
# (deployment, k, k2) triple as a -run one-liner; CrossHost also matches the
# MVNC row (a graph's result FIFO carried across a machine kill by the wire
# snapshot/restore calls); StalledPeer is the table of
# peers that accept a connection and never (or wrongly) answer, one row per
# control exchange (internal/host/stalled_test.go); Release and the
# SameSilo/ReconnectLoop/DeafLink rows of Failover and Host cover the
# release of what a dead incarnation held — exclusive MVNC and QAT devices
# free for the replay, a silo's buffers flat over fifty link kills, a deaf
# connection cut at the new bind, a detached VM's objects given back
# (internal/stacktest/release_test.go, internal/host/deaflink_test.go).
chaos:
	$(GO) test -race -count=1 -run 'Failover|Flaky|Severed|Liveness|Backoff|Control|StalledPeer|CrossHost|Rehydration|Rebalance|Mirror|Gossip|MultiClient|WireClient|Host|Shadow|Replay|Rebind|Migrat|Sweep|LateReply|Release' \
		./internal/transport/ ./internal/failover/ ./internal/migrate/ ./internal/server/ ./internal/stacktest/ ./internal/sched/ ./internal/fleet/ ./internal/bench/ ./internal/host/ .

# Five seconds of real fuzzing per target, for every network-facing decoder
# that has one. Not part of `check`, which already runs the checked-in
# corpora as unit tests; run it after touching a codec. `go test -fuzz`
# takes one target and one package per run, hence the loops.
fuzz-smoke:
	@for pkg in ./internal/marshal/ ./internal/transport/ ./internal/fleet/ ./internal/failover/ ./internal/ctlplane/; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

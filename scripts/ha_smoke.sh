#!/bin/sh
# ha_smoke.sh — end-to-end smoke of the replicated control plane with real
# processes: two avaregd replicas (one gossiping to the other), one avad
# announcing to both and serving a mirror host, one announcing to a single
# replica, and a hard kill of one registry that placement must survive
# through the surviving replica. Gossip convergence and kill semantics are
# covered on the same runtime type by the internal/host tests and E16;
# this script checks what only the binaries can show — flags, log lines,
# the avactl scrapes, and a real SIGKILL. Run from the repo root
# (`make ha-smoke` does). Everything binds to port 0, so parallel CI runs
# do not collide.
set -eu
. scripts/smoke_lib.sh

GO=${GO:-go}
workdir=$(mktemp -d)
cleanup() {
    rm -rf "$workdir"
    [ -n "${regd_a_pid:-}" ] && kill "$regd_a_pid" 2>/dev/null || true
    [ -n "${regd_b_pid:-}" ] && kill "$regd_b_pid" 2>/dev/null || true
    [ -n "${avad_a_pid:-}" ] && kill "$avad_a_pid" 2>/dev/null || true
    [ -n "${avad_b_pid:-}" ] && kill "$avad_b_pid" 2>/dev/null || true
}
trap cleanup EXIT

echo "ha-smoke: building avaregd + avad + avaplace + avactl"
$GO build -o "$workdir/avaregd" ./cmd/avaregd
$GO build -o "$workdir/avad" ./cmd/avad
$GO build -o "$workdir/avaplace" ./cmd/avaplace
$GO build -o "$workdir/avactl" ./cmd/avactl

"$workdir/avaregd" -listen 127.0.0.1:0 -ctl 127.0.0.1:0 >"$workdir/regd-a.log" 2>&1 &
regd_a_pid=$!
reg_a=$(wait_log "$workdir/regd-a.log" "$regd_a_pid" 's/.*serving fleet registry on //p')
ctl_reg_a=$(wait_log "$workdir/regd-a.log" "$regd_a_pid" 's/.*avaregd: ctl listening on //p')

# Replica B gossips its member table to A.
"$workdir/avaregd" -listen 127.0.0.1:0 -peers "$reg_a" -gossip-every 100ms >"$workdir/regd-b.log" 2>&1 &
regd_b_pid=$!
reg_b=$(wait_log "$workdir/regd-b.log" "$regd_b_pid" 's/.*serving fleet registry on //p')
grep -q "gossiping member table to 1 peer(s): $reg_a" "$workdir/regd-b.log" || { echo "ha-smoke: regd-b did not take -peers"; cat "$workdir/regd-b.log"; exit 1; }
echo "ha-smoke: registry replicas up at $reg_a and $reg_b"

# host-a announces to BOTH replicas (the HA announce fan-out) and serves a
# replication mirror host plus the ctl endpoint; host-b announces to
# replica B only.
"$workdir/avad" -listen 127.0.0.1:0 -announce "$reg_a,$reg_b" -id gpu-host-a \
    -mirror 127.0.0.1:0 -ctl 127.0.0.1:0 >"$workdir/avad-a.log" 2>&1 &
avad_a_pid=$!
"$workdir/avad" -listen 127.0.0.1:0 -announce "$reg_b" -id gpu-host-b >"$workdir/avad-b.log" 2>&1 &
avad_b_pid=$!
wait_log "$workdir/avad-a.log" "$avad_a_pid" '/announcing to 2 fleet registry replica/p' >/dev/null
wait_log "$workdir/avad-b.log" "$avad_b_pid" '/announcing to 1 fleet registry replica/p' >/dev/null
echo "ha-smoke: two avads announced (host-b to one replica only)"

# The registry's admin table is scrapeable through its own ctl endpoint.
"$workdir/avactl" -host "$ctl_reg_a" stats | grep -q '^fleet gpu-host-a' || { echo "ha-smoke: replica A's admin table does not list host-a"; exit 1; }

# Quorum-read placement over both replicas.
out=$("$workdir/avaplace" -registry "$reg_a,$reg_b" -vm 2)
echo "$out" | grep -q '^placed vm 2 on gpu-host-' || { echo "ha-smoke: quorum placement failed:"; echo "$out"; exit 1; }
echo "ha-smoke: quorum-read placement OK"

# The ctl endpoint reports the mirror host's replication standing.
ctl_a=$(wait_log "$workdir/avad-a.log" "$avad_a_pid" 's/.*avad: ctl listening on //p')
grep -q "avad: mirror host serving on " "$workdir/avad-a.log" || { echo "ha-smoke: avad-a never started its mirror host"; cat "$workdir/avad-a.log"; exit 1; }
"$workdir/avactl" -host "$ctl_a" mirror >/dev/null || { echo "ha-smoke: avactl mirror scrape failed"; exit 1; }
echo "ha-smoke: mirror host up and scrapeable via avactl"

# SIGKILL registry replica A. Placement and announces must keep working
# through the survivor — the avads' heartbeats ride out the death.
kill -9 "$regd_a_pid" 2>/dev/null || true
regd_a_pid=""
out=$("$workdir/avaplace" -registry "$reg_a,$reg_b" -vm 3)
echo "$out" | grep -q '^placed vm 3 on gpu-host-' || { echo "ha-smoke: placement did not survive the registry kill:"; echo "$out"; exit 1; }
echo "ha-smoke: placement survived a registry replica SIGKILL"

echo "ha-smoke: OK"

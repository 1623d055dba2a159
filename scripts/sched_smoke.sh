#!/bin/sh
# sched_smoke.sh — end-to-end smoke of the cluster-scheduling front door:
# boot a real avaregd and two announced avads, run the avaplace probe, and
# require exactly one placement decision landing on a fleet host. Run
# from the repo root (`make sched-smoke` does). Everything binds to
# port 0, so parallel CI runs do not collide.
set -eu
. scripts/smoke_lib.sh

GO=${GO:-go}
workdir=$(mktemp -d)
cleanup() {
    rm -rf "$workdir"
    [ -n "${regd_pid:-}" ] && kill "$regd_pid" 2>/dev/null || true
    [ -n "${avad_a_pid:-}" ] && kill "$avad_a_pid" 2>/dev/null || true
    [ -n "${avad_b_pid:-}" ] && kill "$avad_b_pid" 2>/dev/null || true
}
trap cleanup EXIT

echo "sched-smoke: building avaregd + avad + avaplace"
$GO build -o "$workdir/avaregd" ./cmd/avaregd
$GO build -o "$workdir/avad" ./cmd/avad
$GO build -o "$workdir/avaplace" ./cmd/avaplace

"$workdir/avaregd" -listen 127.0.0.1:0 >"$workdir/avaregd.log" 2>&1 &
regd_pid=$!
reg_addr=$(wait_log "$workdir/avaregd.log" "$regd_pid" 's/.*serving fleet registry on //p')
echo "sched-smoke: registry up at $reg_addr"

"$workdir/avad" -listen 127.0.0.1:0 -announce "$reg_addr" -id gpu-host-a >"$workdir/avad-a.log" 2>&1 &
avad_a_pid=$!
"$workdir/avad" -listen 127.0.0.1:0 -announce "$reg_addr" -id gpu-host-b >"$workdir/avad-b.log" 2>&1 &
avad_b_pid=$!

# Both hosts must be announced before the probe ranks them.
wait_log "$workdir/avad-a.log" "$avad_a_pid" '/announcing to 1 fleet registry replica/p' >/dev/null
wait_log "$workdir/avad-b.log" "$avad_b_pid" '/announcing to 1 fleet registry replica/p' >/dev/null
echo "sched-smoke: two avads announced"

out=$("$workdir/avaplace" -registry "$reg_addr" -vm 1)
echo "$out"

# Exactly one placement decision, and it names a real fleet member.
decisions=$(echo "$out" | grep -c '^decision .* place ' || true)
[ "$decisions" = "1" ] || { echo "sched-smoke: want exactly 1 place decision, got $decisions"; exit 1; }
echo "$out" | grep -q '^placed vm 1 on gpu-host-' || { echo "sched-smoke: probe did not land on a fleet host"; exit 1; }

echo "sched-smoke: OK"

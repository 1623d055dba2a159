#!/bin/sh
# ctl_smoke.sh — end-to-end smoke of the operability front door: start a
# real avad with its HTTP control endpoint, serve a real client off it
# (examples/disaggregated, an ava.Stack pointed at the daemon's address),
# scrape it with avactl, drain it via avactl, and require a clean exit. Run from the repo root
# (`make ctl-smoke` does). Everything binds to port 0, so parallel CI
# runs do not collide.
set -eu
. scripts/smoke_lib.sh

GO=${GO:-go}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"; [ -n "${avad_pid:-}" ] && kill "$avad_pid" 2>/dev/null || true' EXIT

echo "ctl-smoke: building avad + avactl + the disaggregated example"
$GO build -o "$workdir/avad" ./cmd/avad
$GO build -o "$workdir/avactl" ./cmd/avactl
$GO build -o "$workdir/disaggregated" ./examples/disaggregated

"$workdir/avad" -listen 127.0.0.1:0 -ctl 127.0.0.1:0 >"$workdir/avad.log" 2>&1 &
avad_pid=$!

ctl_addr=$(wait_log "$workdir/avad.log" "$avad_pid" 's/.*avad: ctl listening on //p')
vm_addr=$(wait_log "$workdir/avad.log" "$avad_pid" 's/.*avad: serving opencl on //p')
echo "ctl-smoke: avad up, ctl at $ctl_addr, serving VMs at $vm_addr"

# The daemon's client: the example's saxpy, verified guest-side, must show
# up host-side as a VM row with calls on it.
"$workdir/disaggregated" -server "$vm_addr"
"$workdir/avactl" -host "$ctl_addr" -json vms | grep -q '"calls": [1-9]' || {
    echo "ctl-smoke: no VM row with calls > 0 after the example ran:"
    "$workdir/avactl" -host "$ctl_addr" vms
    exit 1
}

"$workdir/avactl" -host "$ctl_addr" health
"$workdir/avactl" -host "$ctl_addr" stats
"$workdir/avactl" -host "$ctl_addr" vms
"$workdir/avactl" -host "$ctl_addr" -json stats | grep -q '"service": "avad"' || {
    echo "ctl-smoke: stats JSON missing ident"; exit 1
}

echo "ctl-smoke: draining via avactl"
"$workdir/avactl" -host "$ctl_addr" drain

# The drain must take avad down cleanly on its own.
i=0
while kill -0 "$avad_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "ctl-smoke: avad still running 10s after drain:"
        cat "$workdir/avad.log"
        exit 1
    fi
    sleep 0.1
done
wait "$avad_pid" || { echo "ctl-smoke: avad exited non-zero:"; cat "$workdir/avad.log"; exit 1; }
avad_pid=""
grep -q "avad: shut down cleanly" "$workdir/avad.log" || {
    echo "ctl-smoke: no clean-shutdown log line:"; cat "$workdir/avad.log"; exit 1
}
echo "ctl-smoke: OK"

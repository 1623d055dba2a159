# smoke_lib.sh — sourced by the smoke scripts (run from the repo root).

# wait_log FILE PID SED_EXPR: poll FILE until `sed -n SED_EXPR` prints
# something and echo its first line. Fails the script — never falls
# through — if PID dies first or nothing shows up within 10 s.
wait_log() {
    i=0
    while [ $i -lt 100 ]; do
        out=$(sed -n "$3" "$1" 2>/dev/null | head -1)
        if [ -n "$out" ]; then
            echo "$out"
            return 0
        fi
        kill -0 "$2" 2>/dev/null || { echo "smoke: process $2 died; $1:" >&2; cat "$1" >&2; exit 1; }
        i=$((i + 1))
        sleep 0.1
    done
    echo "smoke: timed out waiting for '$3' in $1:" >&2
    cat "$1" >&2
    exit 1
}

#!/usr/bin/env bash
# Daemon smoke test: start mhe-server on an ephemeral port, run a short
# heuristic walk through `spacewalker connect`, and require the served
# frontier to be byte-identical to the in-process batch run — cold, on a
# warm repeat, and on a daemon restarted with fault injection + retries.
# SIGTERM must drain each daemon to a clean exit 0.
#
# Usage: daemon_smoke.sh [SPACEWALKER_BIN [SERVER_BIN]]
# Defaults to target/release/{spacewalker,mhe-server} (built by ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

WALKER="${1:-target/release/spacewalker}"
SERVER="${2:-target/release/mhe-server}"
for bin in "$WALKER" "$SERVER"; do
    if [[ ! -x "$bin" ]]; then
        echo "daemon_smoke: $bin not built" >&2
        exit 1
    fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mhe_daemon_smoke.XXXXXX")"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/spec.txt" <<'EOF'
[processors]
kinds = 1111 3221

[icache]
sizes_kb = 1 4
assocs = 1 2
line_bytes = 32
ports = 1

[dcache]
sizes_kb = 1 4
assocs = 1
line_bytes = 32
ports = 1

[ucache]
sizes_kb = 16 64
assocs = 2
line_bytes = 64
ports = 1

[eval]
benchmark = unepic
events = 60000
l1_miss = 10
l2_miss = 50
EOF

# Starts a daemon on an ephemeral loopback port and waits for its
# port-file; the resolved address lands in $ADDR, the pid in $SERVER_PID.
# Extra NAME=VALUE arguments become the daemon's environment.
start_daemon() {
    rm -f "$WORK/port"
    env "$@" "$SERVER" --addr 127.0.0.1:0 --port-file "$WORK/port" \
        >> "$WORK/server.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$WORK/port" ]] && break
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "daemon_smoke: server died during startup" >&2
            cat "$WORK/server.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [[ -s "$WORK/port" ]] || {
        echo "daemon_smoke: server never wrote its port file" >&2
        exit 1
    }
    ADDR="$(head -n1 "$WORK/port")"
}

# SIGTERMs the daemon in $SERVER_PID and requires a clean exit 0 (the
# graceful drain: stop accepting, finish live frames, join, return).
stop_daemon() {
    kill -TERM "$SERVER_PID"
    local rc=0
    wait "$SERVER_PID" || rc=$?
    SERVER_PID=""
    if [[ "$rc" -ne 0 ]]; then
        echo "daemon_smoke: SIGTERM drain exited $rc (want 0)" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
}

echo "==> in-process batch baseline (heuristic walk)"
"$WALKER" walk "$WORK/spec.txt" --heuristic > "$WORK/batch.txt" 2> "$WORK/batch.log"

echo "==> start daemon on an ephemeral port"
start_daemon
echo "    listening on $ADDR"

echo "==> served walk via --connect (cold daemon)"
"$WALKER" connect "$ADDR" "$WORK/spec.txt" --heuristic \
    > "$WORK/served.txt" 2> "$WORK/served.log"
diff -u "$WORK/batch.txt" "$WORK/served.txt" || {
    echo "daemon_smoke: cold served frontier differs from batch" >&2
    exit 1
}

echo "==> served walk via --connect (warm repeat)"
"$WALKER" connect "$ADDR" "$WORK/spec.txt" --heuristic \
    > "$WORK/warm.txt" 2> "$WORK/warm.log"
diff -u "$WORK/batch.txt" "$WORK/warm.txt" || {
    echo "daemon_smoke: warm served frontier differs from batch" >&2
    exit 1
}
grep -Eq "cache [1-9][0-9]* hits" "$WORK/warm.log" || {
    echo "daemon_smoke: warm repeat reported no cache hits" >&2
    cat "$WORK/warm.log" >&2
    exit 1
}

echo "==> SIGTERM graceful drain"
stop_daemon
if "$WALKER" connect "$ADDR" "$WORK/spec.txt" --heuristic \
    > /dev/null 2> "$WORK/refused.log"; then
    echo "daemon_smoke: a drained daemon still served a walk" >&2
    exit 1
else
    rc=$?
    [[ "$rc" -eq 5 ]] || {
        echo "daemon_smoke: connect to a dead daemon exited $rc (want 5)" >&2
        exit 1
    }
fi

echo "==> restart with fault injection + retries; served walk must still match"
start_daemon MHE_FAULT_PLAN=panic@0 MHE_RETRIES=2
"$WALKER" connect "$ADDR" "$WORK/spec.txt" --heuristic \
    > "$WORK/faulted.txt" 2> "$WORK/faulted.log"
diff -u "$WORK/batch.txt" "$WORK/faulted.txt" || {
    echo "daemon_smoke: frontier under injected panic + retry differs from batch" >&2
    exit 1
}
grep -q "injected fault: worker panic in task 0" "$WORK/server.log" || {
    echo "daemon_smoke: the injected panic never fired (no retry was exercised)" >&2
    cat "$WORK/server.log" >&2
    exit 1
}

echo "==> SIGTERM graceful drain (faulted daemon)"
stop_daemon

echo "==> daemon_smoke: served frontiers byte-identical; drains clean"

#!/bin/sh
# End-to-end smoke test of the sweep farm, run as the CI farm-smoke job:
# boots a real simfarmd coordinator and one simfarm-worker, drives the
# examples/farm/specs.json sweep through them, then proves the corpus
# short-circuit by resubmitting against a *fresh* coordinator process on
# the same corpus with no worker running — every job must come back
# cached with byte-identical summaries.
#
# Each cycle ends by sending SIGTERM while a client's sweep-status
# long-poll is parked: the coordinator must release it and drain well
# inside its 5 s shutdown window.
#
# Runs the cold+warm cycle in one or both transport modes:
#
#   plain  coordinator and clients over plaintext HTTP
#   tls    coordinator under mutual TLS + bearer-token auth, certificates
#          minted on the fly with cmd/gencert; also asserts that a client
#          with a bad token is rejected and that the worker exits with the
#          distinct auth code (4)
#
# Usage: scripts/farmsmoke.sh [plain|tls|both] [addr]
#        (default: both, 127.0.0.1:18344)
set -eu

cd "$(dirname "$0")/.."

MODE=${1:-both}
ADDR=${2:-127.0.0.1:18344}
case "$MODE" in
plain | tls | both) ;;
*)
    echo "farmsmoke: unknown mode '$MODE' (want plain, tls, or both)" >&2
    exit 2
    ;;
esac

WORK=$(mktemp -d "${TMPDIR:-/tmp}/farmsmoke.XXXXXX")

DPID=""
WPID=""
CPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    [ -n "$WPID" ] && kill "$WPID" 2>/dev/null || true
    [ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "farmsmoke: building binaries into $WORK"
go build -o "$WORK/simfarmd" ./cmd/simfarmd
go build -o "$WORK/simfarm-worker" ./cmd/simfarm-worker
go build -o "$WORK/simfarm" ./cmd/simfarm
if [ "$MODE" != "plain" ]; then
    go build -o "$WORK/gencert" ./cmd/gencert
    "$WORK/gencert" -dir "$WORK/certs"
    TOKEN=smoke-$$
fi

# run_cycle <tag> <daemon args...> — one cold+warm cycle against a fresh
# corpus. CLIENT_ARGS / WORKER_ARGS carry the matching client credentials.
run_cycle() {
    tag=$1
    shift
    corpus="$WORK/corpus-$tag"

    echo "farmsmoke[$tag]: cold run (coordinator + 1 worker) on $ADDR"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>"$WORK/simfarmd-$tag.log" &
    DPID=$!
    # shellcheck disable=SC2086
    "$WORK/simfarm-worker" -farm "$ADDR" -name smokebox $WORKER_ARGS \
        -cache-dir "$WORK/worker-$tag.cache" -exit-idle 5s 2>"$WORK/worker-$tag.log" &
    WPID=$!

    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit examples/farm/specs.json -wait \
        -out "$WORK/cold-$tag.json"

    wait "$WPID" || { echo "farmsmoke[$tag]: worker exited non-zero" >&2; cat "$WORK/worker-$tag.log" >&2; exit 1; }
    WPID=""
    # SIGTERM must drain gracefully: flush the journal and exit 0.
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: coordinator did not drain cleanly on SIGTERM" >&2; cat "$WORK/simfarmd-$tag.log" >&2; exit 1; }
    DPID=""

    grep -q 'executed 3 jobs' "$WORK/worker-$tag.log" || {
        echo "farmsmoke[$tag]: worker did not execute all 3 jobs" >&2
        cat "$WORK/worker-$tag.log" >&2
        exit 1
    }
    [ -f "$corpus/farm-journal.jsonl" ] || {
        echo "farmsmoke[$tag]: coordinator wrote no farm journal" >&2
        exit 1
    }

    echo "farmsmoke[$tag]: warm run (fresh coordinator, same corpus, no worker)"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>>"$WORK/simfarmd-$tag.log" &
    DPID=$!

    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit examples/farm/specs.json -wait \
        -out "$WORK/warm-$tag.json" 2>"$WORK/warm-$tag.progress"

    grep -c '(cached)$' "$WORK/warm-$tag.progress" | grep -qx 3 || {
        echo "farmsmoke[$tag]: warm resubmit was not fully served from the corpus" >&2
        cat "$WORK/warm-$tag.progress" >&2
        exit 1
    }
    cmp "$WORK/cold-$tag.json" "$WORK/warm-$tag.json" || {
        echo "farmsmoke[$tag]: warm summaries differ from cold summaries" >&2
        exit 1
    }
    # Release the address for the next cycle, with a status long-poll
    # parked: a client waits on a sweep no worker will run. A poll that
    # Shutdown failed to release would hold the drain for its whole 5 s
    # window.
    sed 's/"seed": 42/"seed": 43/' examples/farm/specs.json >"$WORK/drain.json"
    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit "$WORK/drain.json" -wait \
        >/dev/null 2>&1 &
    CPID=$!
    sleep 1
    start=$(date +%s)
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: coordinator did not drain cleanly with a status poll parked" >&2; cat "$WORK/simfarmd-$tag.log" >&2; exit 1; }
    took=$(($(date +%s) - start))
    DPID=""
    kill "$CPID" 2>/dev/null || true
    wait "$CPID" 2>/dev/null || true
    CPID=""
    [ "$took" -le 2 ] || {
        echo "farmsmoke[$tag]: SIGTERM drain took ${took}s with a status poll parked" >&2
        exit 1
    }
    echo "farmsmoke[$tag]: OK (3 jobs simulated cold, 3 served cached, summaries identical, drain released a parked status poll)"
}

if [ "$MODE" = "plain" ] || [ "$MODE" = "both" ]; then
    CLIENT_ARGS=""
    WORKER_ARGS=""
    run_cycle plain
fi

if [ "$MODE" = "tls" ] || [ "$MODE" = "both" ]; then
    CLIENT_ARGS="-ca $WORK/certs/ca.pem -cert $WORK/certs/client.pem -key $WORK/certs/client-key.pem -token $TOKEN"
    WORKER_ARGS="$CLIENT_ARGS"
    run_cycle tls \
        -tls-cert "$WORK/certs/server.pem" -tls-key "$WORK/certs/server-key.pem" \
        -tls-client-ca "$WORK/certs/ca.pem" -token "$TOKEN"

    echo "farmsmoke[tls]: negative checks (bad token, auth exit code)"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$WORK/corpus-tls" \
        -tls-cert "$WORK/certs/server.pem" -tls-key "$WORK/certs/server-key.pem" \
        -tls-client-ca "$WORK/certs/ca.pem" -token "$TOKEN" 2>>"$WORK/simfarmd-tls.log" &
    DPID=$!
    sleep 1
    if "$WORK/simfarm" -farm "$ADDR" -ca "$WORK/certs/ca.pem" \
        -cert "$WORK/certs/client.pem" -key "$WORK/certs/client-key.pem" \
        -token wrong-token -status anything 2>/dev/null; then
        echo "farmsmoke[tls]: a wrong token must be rejected" >&2
        exit 1
    fi
    set +e
    "$WORK/simfarm-worker" -farm "$ADDR" -ca "$WORK/certs/ca.pem" \
        -cert "$WORK/certs/client.pem" -key "$WORK/certs/client-key.pem" \
        -token wrong-token -exit-idle 2s 2>>"$WORK/worker-auth.log"
    code=$?
    set -e
    [ "$code" -eq 4 ] || {
        echo "farmsmoke[tls]: worker with a bad token exited $code, want the distinct auth code 4" >&2
        cat "$WORK/worker-auth.log" >&2
        exit 1
    }
    kill "$DPID" && wait "$DPID" 2>/dev/null || true
    DPID=""
    echo "farmsmoke[tls]: OK (wrong token rejected, worker auth exit code 4)"
fi

echo "farmsmoke: OK ($MODE)"

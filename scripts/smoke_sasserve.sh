#!/usr/bin/env bash
# Smoke test for the serving pipeline, both directions:
#
#   read side:  generate a dataset, sample it, dump the serialized summary,
#               serve it with sasserve, query its estimate, total, quantile,
#               representatives and heavy hitters over HTTP, and check a
#               NaN phi and the removed -backend flag are refused;
#   write side: start a live summary, check a batch whose weights sum
#               past its bound is refused, push keys over HTTP, force a
#               snapshot, query it, SIGTERM the server (must exit 0,
#               flushing a final snapshot), restart from -snapshot-dir and
#               re-query the recovered summary;
#   load side:  replay a seeded hot/hot-nocache query mix with sasbench
#               -load and check the answer cache took hits;
#   wire side:  push binary frames over HTTP (application/x-sas-frame),
#               run four concurrent sasbench -ingest frame floods while
#               probing the same summary for 429 + Retry-After
#               back-pressure, then verify every acknowledged key landed;
#   crash side: kill -9 the server right after an acknowledged push and
#               check WAL replay recovers the key on restart. Every
#               (re)start gates on GET /readyz, which stays 503 until
#               snapshot recovery and WAL replay finish.
#
# Run from the repository root (CI runs it as a required step;
# `make smoke-serve` runs it locally).
set -euo pipefail

PORT="${SMOKE_PORT:-8347}"
TMP="$(mktemp -d)"
SERVER_PID=""
FLOOD_PIDS=""
cleanup() {
    for pid in $FLOOD_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        # Let the graceful shutdown finish writing its final snapshot
        # before removing the directory out from under it.
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fetch() {
    if command -v curl >/dev/null; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

status() { # status <url>: the HTTP status code of a GET, whatever it is
    if command -v curl >/dev/null; then
        curl -s -o /dev/null -w '%{http_code}' "$1"
    else
        { wget -S -qO /dev/null "$1" 2>&1 || true; } | awk '/^ *HTTP\//{code=$2} END{print code}'
    fi
}

post() { # post <url> <body> (empty body allowed)
    if command -v curl >/dev/null; then
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$1"
    else
        wget -qO- --header 'Content-Type: application/json' --post-data="$2" "$1"
    fi
}

post_status() { # post_status <url> <body>: the HTTP status code of a POST, whatever it is
    if command -v curl >/dev/null; then
        curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$2" "$1"
    else
        { wget -S -qO /dev/null --header 'Content-Type: application/json' --post-data="$2" "$1" 2>&1 || true; } |
            awk '/^ *HTTP\//{code=$2} END{print code}'
    fi
}

# Readiness, not liveness: /readyz answers 503 while snapshot recovery and
# WAL replay run, and 200 only once the summaries are queryable — exactly
# the gate a deployment should wait on before routing traffic.
wait_ready() {
    for _ in $(seq 1 50); do
        if fetch "http://127.0.0.1:$PORT/readyz" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "sasserve exited before becoming ready" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "sasserve never became ready" >&2
    exit 1
}

echo "== build fixture dataset and summary"
go run ./cmd/sasgen -data network -pairs 5000 -bits 12 -seed 1 -o "$TMP/net.csv"
go run ./cmd/sassample -in "$TMP/net.csv" -bits 12 -s 500 -seed 1 -dump "$TMP/net.sas"

echo "== start sasserve (static file + live summary + snapshot dir)"
go build -o "$TMP/sasserve" ./cmd/sasserve
# sasserve serves samples only: the flag that built other kinds is gone,
# and passing it is a usage error (exit 2) naming the flag.
BACKEND_STATUS=0
"$TMP/sasserve" -backend 'x=sample' "x=$TMP/net.sas" 2>"$TMP/backend.err" || BACKEND_STATUS=$?
head -n 1 "$TMP/backend.err"
[ "$BACKEND_STATUS" -eq 2 ] || { echo "sasserve -backend exited $BACKEND_STATUS, want 2" >&2; exit 1; }
grep -q 'flag provided but not defined: -backend' "$TMP/backend.err" || { echo "-backend refusal does not name the flag" >&2; exit 1; }
# Two live summaries share the ingest plane: "flows" keeps the exact-sum
# HTTP assertions below, "load" absorbs the frame floods. A 1-deep ingest
# queue in front of each summary's one worker makes the 429 back-pressure
# probe deterministic under flood.
SERVE=("$TMP/sasserve" -addr "127.0.0.1:$PORT" -live 'flows=bittrie:12,bittrie:12' \
    -live 'load=bittrie:12,bittrie:12' -ingest-queue 1 \
    -live-size 200 -live-seed 1 -snapshot-dir "$TMP/snapshots")
"${SERVE[@]}" "net=$TMP/net.sas" &
SERVER_PID=$!
wait_ready

echo "== query the file-backed summary"
META="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net")"
echo "$META"
echo "$META" | grep -q '"size":500' || { echo "metadata missing size" >&2; exit 1; }

EST="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/estimate?range=0:2047,0:2047")"
echo "$EST"
echo "$EST" | grep -q '"estimates":\[' || { echo "estimate response malformed" >&2; exit 1; }

# The full-domain estimate equals the total estimate exactly.
TOTAL="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/total")"
echo "$TOTAL"
FULL="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/estimate?range=0:4095,0:4095")"
EST_VAL="$(echo "$FULL" | sed -n 's/.*"estimates":\[\([^]]*\)\].*/\1/p')"
TOTAL_VAL="$(echo "$TOTAL" | sed -n 's/.*"estimate":\([0-9.e+-]*\).*/\1/p')"
if [ "$EST_VAL" != "$TOTAL_VAL" ]; then
    echo "full-domain estimate $EST_VAL != total $TOTAL_VAL" >&2
    exit 1
fi

QUANT="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/quantile?axis=0&phi=0.5")"
echo "$QUANT"
echo "$QUANT" | grep -q '"coordinate":[0-9]' || { echo "quantile response has no coordinate" >&2; exit 1; }
REPS="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/representatives?range=0:4095,0:4095&limit=5")"
echo "$REPS"
echo "$REPS" | grep -q '"count":5,' || { echo "representatives count is not 5" >&2; exit 1; }
HH="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net/heavyhitters?range=0:4095,0:4095&k=3")"
echo "$HH"
HH_KEYS="$(echo "$HH" | sed -n 's/.*"keys":\(\[[^"]*\]\),"range".*/\1/p' | grep -o '\[[0-9]*,[0-9]*\]' | wc -l)"
[ "$HH_KEYS" -eq 3 ] || { echo "heavy hitters returned $HH_KEYS keys, want 3" >&2; exit 1; }
NAN_STATUS="$(status "http://127.0.0.1:$PORT/v1/summaries/net/quantile?phi=NaN")"
echo "quantile?phi=NaN: $NAN_STATUS"
[ "$NAN_STATUS" = "400" ] || { echo "quantile?phi=NaN answered $NAN_STATUS, want 400" >&2; exit 1; }

echo "== refuse a batch whose weights sum past the live summary's bound (want 400)"
# Each weight is finite, but their sum overflows: admission refuses the
# batch before it is logged, and the summary keeps accepting and publishing.
OVERFLOW_STATUS="$(post_status "http://127.0.0.1:$PORT/v1/summaries/flows/keys" \
    '{"coords":[[1,2,3],[1,2,3]],"weights":[1.7e308,1.7e308,1]}')"
echo "overflowing batch: $OVERFLOW_STATUS"
[ "$OVERFLOW_STATUS" = "400" ] || { echo "overflowing batch answered $OVERFLOW_STATUS, want 400" >&2; exit 1; }

echo "== push keys into the live summary"
BODY='{"coords":[[5,17,99,1033,5,2040],[7,23,99,4000,7,100]],"weights":[2,3.5,1,10,4,0.5]}'
PUSH="$(post "http://127.0.0.1:$PORT/v1/summaries/flows/keys" "$BODY")"
echo "$PUSH"
echo "$PUSH" | grep -q '"pushed":6' || { echo "push not acknowledged" >&2; exit 1; }

echo "== force a snapshot and query it"
SNAP="$(post "http://127.0.0.1:$PORT/v1/summaries/flows/snapshot" '')"
echo "$SNAP"
echo "$SNAP" | grep -q '"snapshot":1' || { echo "snapshot not published" >&2; exit 1; }

LIVE_TOTAL="$(fetch "http://127.0.0.1:$PORT/v1/summaries/flows/total")"
echo "$LIVE_TOTAL"
# 6 keys fit entirely in the 200-key sample: the estimate is the exact sum.
echo "$LIVE_TOTAL" | grep -q '"estimate":21' || { echo "live total wrong (want 21)" >&2; exit 1; }

echo "== push binary frames over HTTP (application/x-sas-frame)"
go build -o "$TMP/sasbench" ./cmd/sasbench
FRAMED="$("$TMP/sasbench" -ingest "http://127.0.0.1:$PORT" -ingest-name load \
    -ingest-keys 1000 -ingest-batch 250 -seed 3)"
echo "$FRAMED"
echo "$FRAMED" | grep -q '1000 keys in 4 frames' || { echo "HTTP frame push not acknowledged" >&2; exit 1; }

echo "== replay a query load against the served summary (sasbench -load)"
"$TMP/sasbench" -load "http://127.0.0.1:$PORT" -load-name net \
    -load-mix hot,hot-nocache -load-conc 4 -load-duration 300ms \
    -load-out "$TMP/load.json" -seed 5
grep -q '"mix": "hot"' "$TMP/load.json" || { echo "load report missing hot mix" >&2; exit 1; }
grep -q '"p999_ns"' "$TMP/load.json" || { echo "load report missing latency percentiles" >&2; exit 1; }
# The hot mix replays 64 ranges for 300ms: the answer cache must have hits.
NET_META="$(fetch "http://127.0.0.1:$PORT/v1/summaries/net")"
echo "$NET_META"
echo "$NET_META" | grep -q '"cache_hits":[1-9]' || { echo "answer cache took no hits under the hot mix" >&2; exit 1; }

echo "== flood the live summary over HTTP, probe back-pressure (want 429 + Retry-After)"
# Four producers refill the 1-deep queue as soon as the worker pops it,
# and maximum-size frames (131072 keys) keep the worker busy ~10ms per
# pop, so the probe's handler finds the queue full whenever it gets
# scheduled — on one CPU, smaller frames or a single producer drain the
# queue before the probe runs and the 429 would be flaky.
for seed in 7 8 9 10; do
    "$TMP/sasbench" -ingest "http://127.0.0.1:$PORT" -ingest-name load \
        -ingest-keys 4000000 -ingest-batch 131072 -seed "$seed" >"$TMP/flood-$seed.out" &
    FLOOD_PIDS="$FLOOD_PIDS $!"
done
floods_alive() {
    for pid in $FLOOD_PIDS; do
        kill -0 "$pid" 2>/dev/null && return 0
    done
    return 1
}
PROBE_BODY='{"coords":[[1],[2]],"weights":[1]}'
SAW_429=""
PROBES=0
command -v curl >/dev/null || SAW_429="skipped (no curl)"
[ -n "$SAW_429" ] || while [ "$PROBES" -lt 2000 ]; do
    PROBES=$((PROBES + 1))
    CODE="$(curl -s -o "$TMP/probe.json" -D "$TMP/probe.hdr" -w '%{http_code}' -X POST \
        -H 'Content-Type: application/json' -d "$PROBE_BODY" \
        "http://127.0.0.1:$PORT/v1/summaries/load/keys")" || CODE=000
    if [ "$CODE" = "429" ]; then
        SAW_429=yes
        grep -qi '^Retry-After:' "$TMP/probe.hdr" || { echo "429 without Retry-After" >&2; exit 1; }
        break
    fi
    floods_alive || break
done
for pid in $FLOOD_PIDS; do
    wait "$pid" || { echo "frame flood failed" >&2; cat "$TMP"/flood-*.out >&2; exit 1; }
done
FLOOD_PIDS=""
for seed in 7 8 9 10; do
    cat "$TMP/flood-$seed.out"
    grep -q '4000000 keys' "$TMP/flood-$seed.out" || { echo "flood $seed keys not acknowledged" >&2; exit 1; }
done
[ -n "$SAW_429" ] || { echo "never observed a 429 under flood ($PROBES probes)" >&2; exit 1; }
echo "429 probe: $SAW_429 after $PROBES probes"

echo "== snapshot the flooded summary: every acknowledged key must be counted"
LOAD_SNAP="$(post "http://127.0.0.1:$PORT/v1/summaries/load/snapshot" '')"
echo "$LOAD_SNAP"
LOAD_PUSHED="$(echo "$LOAD_SNAP" | sed -n 's/.*"pushed":\([0-9]*\).*/\1/p')"
# 16 001 000 frame keys (four floods and the 1000-key push), plus any
# probe pushes that squeezed in.
if [ -z "$LOAD_PUSHED" ] || [ "$LOAD_PUSHED" -lt 16001000 ]; then
    echo "flooded summary pushed=$LOAD_PUSHED, want >= 16001000" >&2
    exit 1
fi

echo "== push more keys, then SIGTERM (graceful shutdown must flush + exit 0)"
post "http://127.0.0.1:$PORT/v1/summaries/flows/keys" '{"coords":[[77],[88]],"weights":[9]}' >/dev/null

kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "graceful shutdown exited $STATUS, want 0" >&2
    exit 1
fi
ls -l "$TMP/snapshots"
[ -f "$TMP/snapshots/flows-00000002.sas" ] || { echo "final flush missing" >&2; exit 1; }
# The default -wal-sync=interval keeps a WAL beside the snapshots.
ls "$TMP/snapshots"/flows-*.wal >/dev/null 2>&1 || { echo "WAL segments missing" >&2; exit 1; }

echo "== restart and query the recovered snapshot"
"${SERVE[@]}" &
SERVER_PID=$!
wait_ready
RECOVERED="$(fetch "http://127.0.0.1:$PORT/v1/summaries/flows/total")"
echo "$RECOVERED"
# The flushed snapshot includes the post-snapshot push: 21 + 9 = 30.
echo "$RECOVERED" | grep -q '"estimate":30' || { echo "recovered total wrong (want 30)" >&2; exit 1; }
META="$(fetch "http://127.0.0.1:$PORT/v1/summaries/flows")"
echo "$META"
echo "$META" | grep -q '"live":true' || { echo "recovered summary not marked live" >&2; exit 1; }

echo "== push, kill -9, restart: WAL replay must recover the acked key"
post "http://127.0.0.1:$PORT/v1/summaries/flows/keys" '{"coords":[[3],[4]],"weights":[5]}' >/dev/null
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
"${SERVE[@]}" &
SERVER_PID=$!
wait_ready
post "http://127.0.0.1:$PORT/v1/summaries/flows/snapshot" '' >/dev/null
CRASHED="$(fetch "http://127.0.0.1:$PORT/v1/summaries/flows/total")"
echo "$CRASHED"
# Snapshot total 30 plus the WAL-replayed post-crash push: 30 + 5 = 35.
echo "$CRASHED" | grep -q '"estimate":35' || { echo "kill -9 recovery total wrong (want 35)" >&2; exit 1; }

echo "== smoke OK"

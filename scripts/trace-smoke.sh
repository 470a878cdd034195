#!/bin/sh
# trace-smoke.sh — end-to-end fabric-tracing smoke test.
#
# Boots fdpserved with an on-disk store, submits a tiny sweep, waits for
# it to finish, then validates the observability surface the daemon is
# supposed to expose:
#   1. the whole-sweep Chrome trace has complete ("X") events, among them
#      every job stage's span: job, queue, claim (the daemon is a fleet
#      worker), run and store,
#   2. the submit response echoes the X-Fdp-Trace header,
#   3. the provenance ledger beside the store has entries for the sweep,
#   4. /metrics carries the build-info and span families,
#   5. the flight recorder (/debug/events) holds one root span per sweep,
#      also for a resubmission whose cells are all cache hits, and its
#      counts on /metrics add up.
#
# No dependencies beyond a POSIX shell and curl; JSON checks fall back
# from python3 to grep so the script runs in minimal CI images.
set -eu

die() { echo "trace-smoke: FAIL: $*" >&2; exit 1; }

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
PORT=${TRACE_SMOKE_PORT:-18095}
ADDR="127.0.0.1:$PORT"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

[ -x bin/fdpserved ] || go build -o bin/ ./cmd/fdpserved

bin/fdpserved -addr "$ADDR" -cache-dir "$WORK/store" -fleet-worker smoke-a \
    -log-level warn >"$WORK/served.log" 2>&1 &
PID=$!

# Wait for the daemon to answer.
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { cat "$WORK/served.log" >&2; die "daemon did not come up on $ADDR"; }
    sleep 0.1
done

# submit_sweep posts the 2-cell sweep under an explicit trace ID, so
# propagation is checkable end to end, and prints the sweep's ID.
submit_sweep() {
    curl -fsS -D "$WORK/headers" -o "$WORK/sweep.json" \
        -H "X-Fdp-Trace: $TRACE" \
        -H 'Content-Type: application/json' \
        -d '{"name":"trace-smoke","workloads":["seqstream"],"configs":[{"fdp":true},{"level":2}],"insts":20000}' \
        "http://$ADDR/v1/sweeps" || { cat "$WORK/served.log" >&2; die "sweep submission failed"; }
    grep -i "x-fdp-trace: $TRACE" "$WORK/headers" >/dev/null \
        || die "submit response did not echo X-Fdp-Trace"
    sed -n 's/.*"id": *"\(sweep-[0-9]*\)".*/\1/p' "$WORK/sweep.json" | head -1
}

# wait_sweep polls sweep $1 until it is done.
wait_sweep() {
    i=0
    while :; do
        STATE=$(curl -fsS "http://$ADDR/v1/sweeps/$1" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1)
        [ "$STATE" = done ] && break
        [ "$STATE" = failed ] || [ "$STATE" = cancelled ] && die "sweep $1 ended $STATE"
        i=$((i + 1))
        [ "$i" -gt 300 ] && die "sweep $1 did not finish (state: ${STATE:-unknown})"
        sleep 0.2
    done
}

TRACE="deadbeefdeadbeefdeadbeefdeadbeef"
SWEEP=$(submit_sweep)
[ -n "$SWEEP" ] || die "no sweep ID in submit response"
wait_sweep "$SWEEP"

# 1. Chrome trace: valid JSON with >0 complete events, all on our trace.
curl -fsS "http://$ADDR/v1/sweeps/$SWEEP/trace" >"$WORK/trace.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/trace.json" "$TRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
assert xs, "no complete (X) events in Chrome trace"
ids = {e["args"]["trace_id"] for e in xs if "args" in e}
assert ids == {sys.argv[2]}, f"trace IDs {ids} != submitted header"
names = {e["name"] for e in xs}
for want in ("job", "queue", "claim", "run", "store"):
    assert want in names, f"missing {want!r} span (have {sorted(names)})"
print(f"trace-smoke: {len(xs)} complete events on trace {sys.argv[2][:12]}...")
EOF
else
    grep -o '"ph":"X"' "$WORK/trace.json" >/dev/null || die "no complete events in Chrome trace"
    grep -o "$TRACE" "$WORK/trace.json" >/dev/null || die "submitted trace ID absent from export"
    for want in job queue claim run store; do
        grep -o "\"name\":\"$want\"" "$WORK/trace.json" >/dev/null || die "missing $want span in Chrome trace"
    done
fi

# 2. Provenance ledger: one .prov.jsonl per distinct fingerprint, each
# with an executed/cache_hit line carrying our trace ID.
LEDGERS=$(find "$WORK/store" -name '*.prov.jsonl' | wc -l)
[ "$LEDGERS" -ge 2 ] || die "expected >=2 provenance ledgers, found $LEDGERS"
# Plain grep (not -q) so the pipe is read to EOF — -q would SIGPIPE cat.
find "$WORK/store" -name '*.prov.jsonl' -exec cat {} + | grep "$TRACE" >/dev/null \
    || die "provenance ledgers do not carry the submitted trace ID"

# 3. Metrics: build info + span accounting present.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics"
for family in fdpserved_build_info fdpserved_spans_recorded_total fdpserved_tenant_queue_wait_seconds; do
    grep -q "$family" "$WORK/metrics" || die "/metrics missing $family"
done

# 4. Flight recorder: the same sweep again, every cell a cache hit, so
# all its cells finish at once. Each sweep ends once, so /debug/events
# holds one root span per sweep ID, and the recorder is a view of the
# recorded spans, so held + dropped = recorded.
AGAIN=$(submit_sweep)
[ -n "$AGAIN" ] || die "no sweep ID in resubmission response"
wait_sweep "$AGAIN"
curl -fsS "http://$ADDR/debug/events" >"$WORK/events.json"
for id in "$SWEEP" "$AGAIN"; do
    ROOTS=$(grep -c "\"sweep\": \"$id\"" "$WORK/events.json" || true)
    [ "$ROOTS" = 1 ] || die "/debug/events holds $ROOTS root spans of $id, want 1"
done
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics"
metric() { sed -n "s/^fdpserved_$1 //p" "$WORK/metrics"; }
HELD=$(metric spans_held)
DROPPED=$(metric spans_dropped_total)
RECORDED=$(metric spans_recorded_total)
[ "$((HELD + DROPPED))" = "$RECORDED" ] \
    || die "spans_held $HELD + spans_dropped_total $DROPPED != spans_recorded_total $RECORDED"

echo "trace-smoke: PASS ($SWEEP and cached $AGAIN, $LEDGERS ledgers, $RECORDED spans)"

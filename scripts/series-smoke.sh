#!/bin/sh
# series-smoke.sh — end-to-end interval-timeseries smoke test.
#
# Boots fdpserved with an on-disk store, submits one series-recorded job,
# waits for it to finish, then validates the timeseries surface:
#   1. GET /v1/jobs/{id}/series returns the full catalog, one value per
#      closed interval, and honours metric selection + downsampling,
#   2. the sidecar landed in the store (<fp>.series.bin),
#   3. a self-diff of the fingerprint (GET /v1/diff?a=fp&b=fp) passes
#      with zero residual on every metric,
#   4. /metrics carries the series and diff families,
#   5. fdptop attaches to the finished job, and to a cache-hit
#      resubmission of it, and renders the closing frame from the done
#      event's Result: [done] and the result's BPKI.
#
# No dependencies beyond a POSIX shell and curl; JSON checks fall back
# from python3 to grep so the script runs in minimal CI images.
set -eu

die() { echo "series-smoke: FAIL: $*" >&2; exit 1; }

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
PORT=${SERIES_SMOKE_PORT:-18096}
ADDR="127.0.0.1:$PORT"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

[ -x bin/fdpserved ] || go build -o bin/ ./cmd/fdpserved
[ -x bin/fdptop ] || go build -o bin/ ./cmd/fdptop

bin/fdpserved -addr "$ADDR" -cache-dir "$WORK/store" \
    -log-level warn >"$WORK/served.log" 2>&1 &
PID=$!

# Wait for the daemon to answer.
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { cat "$WORK/served.log" >&2; die "daemon did not come up on $ADDR"; }
    sleep 0.1
done

# Submit one series-recorded FDP job. The sampling interval ends on L2
# useful-block evictions, so the budget must stream well past the L2's
# capacity before intervals close — 2M instructions closes hundreds.
curl -fsS -o "$WORK/job.json" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"seqstream","fdp":true,"insts":2000000,"seed":7,"tinterval":64,"series":true}' \
    "http://$ADDR/v1/jobs" || { cat "$WORK/served.log" >&2; die "job submission failed"; }

JOB=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/job.json" | head -1)
[ -n "$JOB" ] || die "no job ID in submit response"

# Poll until the job is terminal.
i=0
while :; do
    curl -fsS "http://$ADDR/v1/jobs/$JOB" >"$WORK/status.json"
    STATE=$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' "$WORK/status.json" | head -1)
    [ "$STATE" = done ] && break
    [ "$STATE" = failed ] || [ "$STATE" = cancelled ] && { cat "$WORK/served.log" >&2; die "job ended $STATE"; }
    i=$((i + 1))
    [ "$i" -gt 300 ] && die "job did not finish (state: ${STATE:-unknown})"
    sleep 0.2
done

FP=$(sed -n 's/.*"fingerprint": *"\([0-9a-f]*\)".*/\1/p' "$WORK/status.json" | head -1)
[ -n "$FP" ] || die "no fingerprint in job status"

# 1. The series artifact: full catalog, one value per interval; selection
# and downsampling answer 200.
curl -fsS "http://$ADDR/v1/jobs/$JOB/series" >"$WORK/series.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/series.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
n = doc["meta"]["intervals"]
assert n > 0, "no intervals recorded"
names = [m["name"] for m in doc["metrics"]]
for want in ("ipc", "bpki", "accuracy", "dcc_level", "bus_util"):
    assert want in names, f"catalog missing {want!r}"
for m in doc["metrics"]:
    assert len(m["values"]) == n, f"{m['name']}: {len(m['values'])} values over {n} intervals"
print(f"series-smoke: {len(names)} metrics x {n} intervals")
EOF
else
    grep -q '"ipc"' "$WORK/series.json" || die "series response missing the ipc metric"
    grep -q '"dcc_level"' "$WORK/series.json" || die "series response missing the dcc_level metric"
fi
curl -fsS "http://$ADDR/v1/jobs/$JOB/series?metrics=ipc,bpki&step=8" >/dev/null \
    || die "metric selection + downsampling failed"
# Download to a file first: piping into head would SIGPIPE curl.
curl -fsS "http://$ADDR/v1/jobs/$JOB/series?format=csv" >"$WORK/series.csv"
head -1 "$WORK/series.csv" | grep -q '^interval,' || die "CSV export has no header row"

# 2. The sidecar is on disk next to the result.
[ -f "$WORK/store/$(echo "$FP" | cut -c1-2)/$FP.series.bin" ] \
    || die "no $FP.series.bin sidecar in the store"

# 3. Self-diff: zero residual, pass verdict on every metric.
curl -fsS "http://$ADDR/v1/diff?a=$FP&b=$FP" >"$WORK/diff.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/diff.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["verdict"] == "pass", f"self-diff verdict {rep['verdict']}"
for m in rep["metrics"]:
    assert m["max_abs"] == 0, f"{m['metric']}: residual {m['max_abs']}"
    assert m["first_divergence"] == 0, f"{m['metric']}: diverges at {m['first_divergence']}"
print(f"series-smoke: self-diff pass over {rep['intervals']} intervals, {len(rep['metrics'])} metrics")
EOF
else
    grep -q '"verdict": *"pass"' "$WORK/diff.json" || die "self-diff did not pass"
fi

# 4. Metrics: series volume + diff verdict families present.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics"
for family in sim_series_points_total sim_series_bytes_total fdpserved_diff_requests_total; do
    grep -q "$family" "$WORK/metrics" || die "/metrics missing $family"
done
grep -q 'fdpserved_diff_requests_total{verdict="pass"} 1' "$WORK/metrics" \
    || die "diff verdict counter did not count the pass"

# 5. Live dashboard: no interval event carries BPKI, so fdptop's closing
# frame must take it from the done event's Result. The cache-hit job
# streams no interval at all and renders from the Result alone.
BPKI=$(sed -n 's/.*"BPKI": *\([-0-9.eE+]*\).*/\1/p' "$WORK/status.json" | head -1)
[ -n "$BPKI" ] || die "no result BPKI in job status"
WANT=$(awk -v b="$BPKI" 'BEGIN { printf "BPKI %6.2f", b }')
curl -fsS -o "$WORK/hit.json" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"seqstream","fdp":true,"insts":2000000,"seed":7,"tinterval":64,"series":true}' \
    "http://$ADDR/v1/jobs" || die "cache-hit resubmission failed"
grep -q '"cache_hit": *true' "$WORK/hit.json" || die "resubmission was not a cache hit"
HIT=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/hit.json" | head -1)
for id in "$JOB" "$HIT"; do
    bin/fdptop -addr "$ADDR" -job "$id" -once >"$WORK/top.txt" 2>"$WORK/top.err" \
        || { cat "$WORK/top.err" >&2; die "fdptop -job $id exited non-zero"; }
    grep -q '\[done\]' "$WORK/top.txt" || die "fdptop -job $id rendered no [done] frame"
    grep -qF "$WANT" "$WORK/top.txt" || die "fdptop -job $id: no '$WANT' in its closing frame"
done
echo "series-smoke: fdptop closing frames carry $WANT ($JOB, cache hit $HIT)"

echo "series-smoke: PASS ($JOB, fp ${FP%"${FP#????????????}"}...)"

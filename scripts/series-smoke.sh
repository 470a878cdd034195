#!/bin/sh
# series-smoke.sh — end-to-end interval-timeseries smoke test.
#
# Boots fdpserved with an on-disk store, submits one series-recorded job,
# waits for it to finish, then validates the timeseries surface:
#   1. GET /v1/jobs/{id}/series returns the full catalog, one value per
#      closed interval, and honours metric selection + downsampling,
#   2. one stored stream, two views: GET /v1/jobs/{id}/trace on the
#      series job returns one JSONL line per interval, the same config
#      submitted with only "trace" is a cache hit (200) serving the same
#      bytes, and the store holds no <fp>.trace.jsonl,
#   3. the sidecar landed in the store (<fp>.series.bin),
#   4. a self-diff of the fingerprint (GET /v1/diff?a=fp&b=fp) passes
#      with zero residual on every metric,
#   5. /metrics carries the series and diff families,
#   6. fdptop attaches to the finished job, and to a cache-hit
#      resubmission of it, and renders the closing frame from the done
#      event's Result: [done] and the result's BPKI,
#   7. a series is derived, never lost: a config first stored without a
#      series, then resubmitted with one, runs again (202, no cache hit)
#      and serves one value per interval; a third submission is a cache
#      hit (200) with the same series bytes.
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

# job_id FILE prints the job ID in a submit response.
job_id() { sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$1" | head -1; }

# submit BODY FILE posts a job and prints the HTTP status.
submit() {
    curl -sS -o "$2" -w '%{http_code}' -H 'Content-Type: application/json' -d "$1" "http://$ADDR/v1/jobs"
}

# wait_done JOB FILE polls a job until it is done, leaving its final
# status in FILE; a failed or cancelled job fails the smoke.
wait_done() {
    i=0
    while :; do
        curl -fsS "http://$ADDR/v1/jobs/$1" >"$2"
        STATE=$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' "$2" | head -1)
        [ "$STATE" = done ] && return 0
        [ "$STATE" = failed ] || [ "$STATE" = cancelled ] && { cat "$WORK/served.log" >&2; die "job $1 ended $STATE"; }
        i=$((i + 1))
        [ "$i" -gt 300 ] && die "job $1 did not finish (state: ${STATE:-unknown})"
        sleep 0.2
    done
}

# Submit one series-recorded FDP job. The sampling interval ends on L2
# useful-block evictions, so the budget must stream well past the L2's
# capacity before intervals close — 2M instructions closes hundreds.
curl -fsS -o "$WORK/job.json" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"seqstream","fdp":true,"insts":2000000,"seed":7,"tinterval":64,"series":true}' \
    "http://$ADDR/v1/jobs" || { cat "$WORK/served.log" >&2; die "job submission failed"; }

JOB=$(job_id "$WORK/job.json")
[ -n "$JOB" ] || die "no job ID in submit response"
wait_done "$JOB" "$WORK/status.json"

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

# 2. One stored stream, two views: the series job serves its decision
# trace, and a trace-only submission of the same config is a cache hit on
# the stored stream.
curl -fsS "http://$ADDR/v1/jobs/$JOB/trace" >"$WORK/trace.jsonl" \
    || die "the series job serves no decision trace"
LINES=$(wc -l <"$WORK/trace.jsonl" | tr -d ' ')
N=$(sed -n 's/.*"Intervals": *\([0-9]*\).*/\1/p' "$WORK/status.json" | head -1)
[ -n "$N" ] && [ "$N" -gt 0 ] && [ "$LINES" = "$N" ] \
    || die "the series job's trace has $LINES lines for ${N:-no} intervals"
CODE=$(submit '{"workload":"seqstream","fdp":true,"insts":2000000,"seed":7,"tinterval":64,"trace":true}' "$WORK/trace-hit.json")
[ "$CODE" = 200 ] || die "trace submission over the stored series answered $CODE, want 200 (a cache hit)"
grep -q '"cache_hit": *true' "$WORK/trace-hit.json" || die "trace submission over the stored series was not a cache hit"
curl -fsS "http://$ADDR/v1/jobs/$(job_id "$WORK/trace-hit.json")/trace" >"$WORK/trace-hit.jsonl"
cmp -s "$WORK/trace.jsonl" "$WORK/trace-hit.jsonl" || die "cache-hit trace differs from the series job's"
TRACES=$(find "$WORK/store" -name '*.trace.jsonl' | wc -l | tr -d ' ')
[ "$TRACES" = 0 ] || die "the store holds $TRACES trace files; want none beside the series sidecar"
echo "series-smoke: one stream, two views: $LINES trace lines; a trace-only resubmission hit the stored series"

# 3. The sidecar is on disk next to the result.
[ -f "$WORK/store/$(echo "$FP" | cut -c1-2)/$FP.series.bin" ] \
    || die "no $FP.series.bin sidecar in the store"

# 4. Self-diff: zero residual, pass verdict on every metric.
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

# 5. Metrics: series volume + diff verdict families present.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics"
for family in sim_series_points_total sim_series_bytes_total fdpserved_diff_requests_total; do
    grep -q "$family" "$WORK/metrics" || die "/metrics missing $family"
done
grep -q 'fdpserved_diff_requests_total{verdict="pass"} 1' "$WORK/metrics" \
    || die "diff verdict counter did not count the pass"

# 6. Live dashboard: no interval event carries BPKI, so fdptop's closing
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

# 7. A series asked of an entry stored without one is derived by a re-run,
# then cached.
BARE='{"workload":"seqstream","fdp":true,"insts":2000000,"seed":8,"tinterval":64'
CODE=$(submit "$BARE}" "$WORK/bare.json")
[ "$CODE" = 202 ] || die "bare submission answered $CODE, want 202"
wait_done "$(job_id "$WORK/bare.json")" "$WORK/bare-status.json"
CODE=$(submit "$BARE,\"series\":true}" "$WORK/derive.json")
[ "$CODE" = 202 ] || die "series request over a bare entry answered $CODE, want 202 (a re-run)"
grep -q '"cache_hit": *false' "$WORK/derive.json" || die "series request over a bare entry was a cache hit"
DERIVE=$(job_id "$WORK/derive.json")
wait_done "$DERIVE" "$WORK/derive-status.json"
curl -fsS "http://$ADDR/v1/jobs/$DERIVE/series" >"$WORK/derive-series.json" \
    || die "re-derived job serves no series"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/derive-series.json" "$WORK/derive-status.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
n = doc["meta"]["intervals"]
want = json.load(open(sys.argv[2]))["result"]["Intervals"]
assert n > 0 and n == want, f"series spans {n} intervals, the result closed {want}"
for m in doc["metrics"]:
    assert len(m["values"]) == n, f"{m['name']}: {len(m['values'])} values over {n} intervals"
print(f"series-smoke: re-derived series, {len(doc['metrics'])} metrics x {n} intervals")
EOF
else
    grep -q '"dcc_level"' "$WORK/derive-series.json" || die "re-derived series missing the dcc_level metric"
fi
CODE=$(submit "$BARE,\"series\":true}" "$WORK/rehit.json")
[ "$CODE" = 200 ] || die "third submission answered $CODE, want 200 (a cache hit)"
grep -q '"cache_hit": *true' "$WORK/rehit.json" || die "third submission was not a cache hit"
curl -fsS "http://$ADDR/v1/jobs/$(job_id "$WORK/rehit.json")/series" >"$WORK/rehit-series.json"
cmp -s "$WORK/derive-series.json" "$WORK/rehit-series.json" \
    || die "cache-hit series differs from the re-derived one"
echo "series-smoke: a series asked of a bare entry was re-derived ($DERIVE), then cached"

echo "series-smoke: PASS ($JOB, fp ${FP%"${FP#????????????}"}...)"

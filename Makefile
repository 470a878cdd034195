# Convenience targets; everything is plain `go` underneath.

.PHONY: all build build-cmds vet fmt-check lint loc test test-short test-race fleet-e2e perfbench-check examples check bench bench-core bench-trace bench-json bench-diff controller-equivalence trace-smoke series-smoke experiments serve fuzz fuzz-smoke clean

all: build vet test

build:
	go build ./...

# Build every binary explicitly (what CI ships); plain `go build ./...`
# compiles main packages but discards them.
build-cmds:
	go build -o bin/ ./cmd/...

vet:
	go vet ./...

# Formatting gate: fails, naming the files, when gofmt would rewrite any
# tracked Go file.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -w needed on:"; echo "$$out"; exit 1; fi

# Static analysis: the formatting gate and go vet always; staticcheck when
# installed (CI installs it, local machines may not — the gate degrades to
# vet, not to a failure).
lint: fmt-check vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Non-test Go lines in the root module, perfbench/ excluded: the size
# ROADMAP.md and CHANGES.md cite for "net lines deleted". A report, not a
# gate.
loc:
	@git ls-files '*.go' ':!perfbench' ':!*_test.go' | xargs cat | wc -l

test:
	go test ./...

test-short:
	go test -short ./...

test-race:
	go test -race ./...

# The sweep-fabric acceptance smoke: the two-worker fleet e2e (shared
# store, claim/lease/steal coordination, exactly-once execution) and the
# 18-cell sweep e2e, under the race detector. test-race covers both too;
# -count=1 here defeats the test cache so `make check` always exercises
# the cross-process claim protocol for real.
fleet-e2e:
	go test -race -count=1 -run 'TestFleetTwoWorkers|TestSweepEndToEnd' ./internal/service

# The layered benchmark's self-test. perfbench/ is a module of its own,
# so the root `go test ./...` skips it; this runs every benchmark
# workload at tiny scale, traced and untraced, against the checked-in
# digests (about 6 s) — the only check of the cmp workload's multi-core
# and SMT digests. Run it after the race suite, never alongside it: in
# parallel with the root tests it starves the fleet e2e tests.
perfbench-check:
	cd perfbench && go test -count=1 .

# Run every library example (examples/*, a few seconds together),
# failing on the first that exits non-zero. `go build ./...` only
# compiles them.
examples:
	@for d in examples/*/; do echo "== $$d"; go run ./$$d || exit 1; done

# What CI runs: a full build, vet, the race-enabled test suite (the
# service's interval sink hands each event to SSE subscribers on other
# goroutines, so -race is load-bearing), the uncached fleet/sweep e2e
# smoke, the benchmark self-test, the library examples, the
# fabric-tracing smoke, and the interval-timeseries smoke with its live
# fdptop check.
check: build fmt-check vet test-race fleet-e2e perfbench-check examples trace-smoke series-smoke

# One benchmark per paper table/figure (see bench_test.go).
bench:
	go test -bench=. -benchmem

# The event-engine contract: the warmed cycle loop allocates nothing.
# Runs the cycle-loop benchmarks with -benchmem and fails if either
# BenchmarkIntervalBoundary or BenchmarkPerInstruction reports a nonzero
# allocs/op. To compare throughput across commits, save this target's
# output on both and feed them to benchstat (not vendored; the target
# only points at it so nothing here needs network access):
#   make bench-core > old.txt   # on the base commit
#   make bench-core > new.txt   # on your branch
#   benchstat old.txt new.txt
bench-core:
	@out=$$(go test ./internal/sim -run xxx -bench 'BenchmarkIntervalBoundary|BenchmarkPerInstruction' -benchmem); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -E 'Benchmark(IntervalBoundary|PerInstruction).* [1-9][0-9]* allocs/op' >/dev/null; then \
		echo "bench-core: hot-path benchmark allocated (want 0 allocs/op)"; exit 1; \
	fi
	@command -v benchstat >/dev/null 2>&1 || \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest) — single run only, no comparison"

# Benchmark snapshot numbering: BENCH_LAST is the newest checked-in
# BENCH_N.json, BENCH_TOP the newest on disk (a fresh, uncommitted one once
# bench-json has run), BENCH_NEXT the next free number.
bench_max = $(shell printf '%s\n' $(1) | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1)
BENCH_LAST = $(call bench_max,$(shell git ls-files 'BENCH_*.json'))
BENCH_TOP = $(call bench_max,$(wildcard BENCH_*.json))
BENCH_NEXT = $(shell echo $$(( $(or $(BENCH_TOP),0) + 1 )))

# Machine-readable benchmark snapshot: runs the core hot-path
# benchmarks and archives them as the next free BENCH_N.json at the repo
# root (CI uploads the same file as a build artifact). The JSON carries
# goos/goarch/cpu context, so snapshots from different machines are
# distinguishable; compare like with like.
bench-json:
	go test ./internal/sim -run xxx -bench 'BenchmarkIntervalBoundary|BenchmarkPerInstruction' -benchmem \
		| go run ./cmd/benchjson -out BENCH_$(BENCH_NEXT).json

# Compare a fresh snapshot — the newest on disk, or one bench-json writes
# now when none is newer than the checked-in ones — against the newest
# checked-in snapshot, matched by package+benchmark name. Any allocs/op
# growth fails outright — that gate is machine-independent and is the
# real contract. Shared runners make wall time noisy even on an identical
# CPU model (2-3x swings between runs an hour apart are in the archives),
# so the ns/op threshold here is deliberately loose; tighten it locally
# (-threshold 0.1) when comparing runs on a quiet machine.
bench-diff:
	@last=$(BENCH_LAST); fresh=$(BENCH_TOP); \
	if [ -z "$$last" ]; then echo "bench-diff: no checked-in BENCH_N.json"; exit 1; fi; \
	if [ "$$fresh" = "$$last" ]; then $(MAKE) --no-print-directory bench-json || exit 1; fresh=$$((last + 1)); fi; \
	echo "bench-diff: BENCH_$$last.json -> BENCH_$$fresh.json"; \
	go run ./cmd/benchjson -diff -threshold 3.0 BENCH_$$last.json BENCH_$$fresh.json

# The controller-refactor equivalence gate: the engine goldens, plus the
# same single-core FDP suite rerun with the Table 2 policy selected
# explicitly through the internal/control registry. -count=1 defeats the
# test cache so the gate always simulates for real.
controller-equivalence:
	go test . -run 'TestEngineGolden|TestControllerEquivalence' -count=1

# The tracer hot-path guard: the interval boundary must stay
# allocation-free with tracing disabled (and with a no-op tracer).
# -benchtime=1x is a smoke run — CI uses it to catch compile/wiring rot;
# use the default benchtime locally for real numbers.
bench-trace:
	go test ./internal/sim -run xxx -bench BenchmarkIntervalBoundary -benchmem -benchtime=1x

# End-to-end fabric-tracing smoke: boot fdpserved with a store, run a
# tiny sweep, validate the Chrome trace export, the provenance ledgers
# and the /metrics span families (scripts/trace-smoke.sh).
trace-smoke: build-cmds
	sh scripts/trace-smoke.sh

# End-to-end interval-timeseries smoke: boot fdpserved with a store, run
# one series-recorded job, fetch the series (JSON + CSV + downsampled),
# check the sidecar landed on disk, self-diff the fingerprint expecting
# zero residual, check the /metrics families, and attach fdptop to the
# job and to a cache-hit resubmission, expecting a closing frame with the
# result's BPKI (scripts/series-smoke.sh).
series-smoke: build-cmds
	sh scripts/series-smoke.sh

# Regenerate every table and figure at the documented scale. Results
# persist in .fdpcache, so a re-run only simulates what changed.
experiments:
	go run ./cmd/experiments -all -insts 1000000 -warmup 250000 -cache-dir .fdpcache

# Run the simulation job service on :8080 with an on-disk result cache.
serve:
	go run ./cmd/fdpserved -addr :8080 -cache-dir .fdpcache

# go test runs one fuzz target per invocation, so the targets fuzz back
# to back (patterns anchored so a later target sharing a prefix cannot
# make -fuzz ambiguous). FuzzJobRequest drives POST /v1/jobs bodies
# through decode, validation and fingerprinting (and a short run): none
# may panic a service worker. FuzzTreeModel hammers the controller model
# loader: malformed JSON must return ErrInvalid, never panic, and a model
# that loads must never decide out of range. FuzzBlockIndex checks the
# memory path's open-addressed block index against a Go map.
fuzz:
	go test ./internal/service -run xxx -fuzz 'FuzzJobRequest$$' -fuzztime 30s
	go test ./internal/trace -run xxx -fuzz 'FuzzReaderV2$$' -fuzztime 30s
	go test ./internal/control -run xxx -fuzz 'FuzzTreeModel$$' -fuzztime 30s
	go test ./internal/series -run xxx -fuzz 'FuzzDecode$$' -fuzztime 30s
	go test ./internal/cache -run xxx -fuzz 'FuzzBlockIndex$$' -fuzztime 30s
	go test ./internal/cache -run xxx -fuzz 'FuzzCacheLRU$$' -fuzztime 30s
	go test ./internal/prefetch -run xxx -fuzz 'FuzzStreamTable$$' -fuzztime 30s

# The 10-second-per-target slice CI runs on every PR, so request,
# decoder, model-loader, block-index, tag-store and stream-table fuzz
# regressions surface before merge, not in nightlies.
fuzz-smoke:
	go test ./internal/service -run xxx -fuzz 'FuzzJobRequest$$' -fuzztime 10s
	go test ./internal/trace -run xxx -fuzz 'FuzzReaderV2$$' -fuzztime 10s
	go test ./internal/control -run xxx -fuzz 'FuzzTreeModel$$' -fuzztime 10s
	go test ./internal/series -run xxx -fuzz 'FuzzDecode$$' -fuzztime 10s
	go test ./internal/cache -run xxx -fuzz 'FuzzBlockIndex$$' -fuzztime 10s
	go test ./internal/cache -run xxx -fuzz 'FuzzCacheLRU$$' -fuzztime 10s
	go test ./internal/prefetch -run xxx -fuzz 'FuzzStreamTable$$' -fuzztime 10s

clean:
	go clean ./...
	rm -rf bin

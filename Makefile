# Convenience targets; everything is plain `go` underneath.

.PHONY: all build build-cmds vet lint test test-short test-race fleet-e2e perfbench-check check bench bench-core bench-trace bench-json bench-diff controller-equivalence trace-smoke series-smoke experiments serve fuzz fuzz-smoke clean

all: build vet test

build:
	go build ./...

# Build every binary explicitly (what CI ships); plain `go build ./...`
# compiles main packages but discards them.
build-cmds:
	go build -o bin/ ./cmd/...

vet:
	go vet ./...

# Static analysis: go vet always; staticcheck when installed (CI installs
# it, local machines may not — the gate degrades to vet, not to a failure).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

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

# What CI runs: a full build, vet, the race-enabled test suite (the
# progress sinks cross goroutine boundaries, so -race is load-bearing),
# the uncached fleet/sweep e2e smoke, the benchmark self-test, and the
# interval-timeseries smoke.
check: build vet test-race fleet-e2e perfbench-check series-smoke

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

# Machine-readable benchmark snapshot: runs the core hot-path
# benchmarks and archives them as BENCH_9.json at the repo root (CI
# uploads the same file as a build artifact). The JSON carries goos/
# goarch/cpu context, so snapshots from different machines are
# distinguishable; compare like with like.
bench-json:
	go test ./internal/sim -run xxx -bench 'BenchmarkIntervalBoundary|BenchmarkPerInstruction' -benchmem \
		| go run ./cmd/benchjson -out BENCH_9.json

# Compare the freshly archived snapshot against the previous PR's
# (BENCH_8.json, checked in), matched by package+benchmark name. Any
# allocs/op growth fails outright — that gate is machine-independent and
# is the real contract. Shared runners make wall time noisy even on an
# identical CPU model (2-3x swings between runs an hour apart are in the
# archives), so the ns/op threshold here is deliberately loose; tighten
# it locally (-threshold 0.1) when comparing runs on a quiet machine.
bench-diff: bench-json
	go run ./cmd/benchjson -diff -threshold 3.0 BENCH_8.json BENCH_9.json

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
# zero residual, and check the /metrics families
# (scripts/series-smoke.sh).
series-smoke: build-cmds
	sh scripts/series-smoke.sh

# Regenerate every table and figure at the documented scale. Results
# persist in .fdpcache, so a re-run only simulates what changed.
experiments:
	go run ./cmd/experiments -all -insts 1000000 -warmup 250000 -cache-dir .fdpcache

# Run the simulation job service on :8080 with an on-disk result cache.
serve:
	go run ./cmd/fdpserved -addr :8080 -cache-dir .fdpcache

# go test runs one fuzz target per invocation, so the decoders fuzz back
# to back (patterns anchored: "FuzzReader" alone would match both trace
# targets and go test refuses an ambiguous -fuzz). FuzzTreeModel hammers
# the controller model loader: malformed JSON must return ErrInvalid,
# never panic, and a model that loads must never decide out of range.
fuzz:
	go test ./internal/trace -run xxx -fuzz 'FuzzReader$$' -fuzztime 30s
	go test ./internal/trace -run xxx -fuzz 'FuzzReaderV2$$' -fuzztime 30s
	go test ./internal/control -run xxx -fuzz 'FuzzTreeModel$$' -fuzztime 30s
	go test ./internal/series -run xxx -fuzz 'FuzzDecode$$' -fuzztime 30s

# The 10-second-per-target slice CI runs on every PR, so decoder and
# model-loader fuzz regressions surface before merge, not in nightlies.
fuzz-smoke:
	go test ./internal/trace -run xxx -fuzz 'FuzzReader$$' -fuzztime 10s
	go test ./internal/trace -run xxx -fuzz 'FuzzReaderV2$$' -fuzztime 10s
	go test ./internal/control -run xxx -fuzz 'FuzzTreeModel$$' -fuzztime 10s
	go test ./internal/series -run xxx -fuzz 'FuzzDecode$$' -fuzztime 10s

clean:
	go clean ./...
	rm -rf bin

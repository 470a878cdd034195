# Convenience targets; everything is plain `go` underneath.

.PHONY: all build build-cmds vet fmt-check lint loc test test-short test-race fleet-e2e perfbench-check examples check bench bench-core bench-trace bench-json bench-diff controller-equivalence trace-smoke series-smoke experiments experiments-check serve fuzz fuzz-smoke clean

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
# 18-cell sweep e2e, plus two stored entries that are no answer (a
# Result of another version, a Result without a requested series), each
# of which must run once fleet-wide, under the race detector. test-race
# covers them too; -count=1 here defeats the test cache so `make check`
# always exercises the cross-process claim protocol for real.
fleet-e2e:
	go test -race -count=1 -run 'TestFleetTwoWorkers|TestFleetSkewedResultRunsOnce|TestFleetBareEntrySidecarRunsOnce|TestSweepEndToEnd' ./internal/service

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

# The core benchmarks bench-core and bench-json run: the cycle loop
# (BenchmarkIntervalBoundary, BenchmarkPerInstruction), trace-v2 encode
# and decode (BenchmarkWriterV2, BenchmarkReaderV2) and the series codec
# (BenchmarkSeriesCodec).
BENCH_PKGS = ./internal/sim ./internal/trace ./internal/series
BENCH_CORE = BenchmarkIntervalBoundary|BenchmarkPerInstruction|BenchmarkWriterV2|BenchmarkReaderV2|BenchmarkSeriesCodec

# The hot-path contract: the warmed cycle loop and the trace-v2 writer
# and reader allocate nothing. Runs the core benchmarks with -benchmem
# and fails if any of the first four reports a nonzero allocs/op (the
# series codec allocates its document and events by design). To compare
# throughput across commits, save this target's output on both and feed
# them to benchstat (not vendored; the target only points at it so
# nothing here needs network access):
#   make bench-core > old.txt   # on the base commit
#   make bench-core > new.txt   # on your branch
#   benchstat old.txt new.txt
bench-core:
	@out=$$(go test $(BENCH_PKGS) -run xxx -bench '$(BENCH_CORE)' -benchmem); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -E 'Benchmark(IntervalBoundary|PerInstruction|WriterV2|ReaderV2).* [1-9][0-9]* allocs/op' >/dev/null; then \
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

# Machine-readable benchmark snapshot: runs the core benchmarks and
# archives them as the next free BENCH_N.json at the repo
# root (CI uploads the same file as a build artifact). The JSON carries
# goos/goarch/cpu context, so snapshots from different machines are
# distinguishable; compare like with like.
bench-json:
	go test $(BENCH_PKGS) -run xxx -bench '$(BENCH_CORE)' -benchmem \
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
# and the /metrics span families, then resubmit it and check the flight
# recorder (/debug/events) and its span counts (scripts/trace-smoke.sh).
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

# The documented scale of experiments_output.txt.
EXPERIMENTS_SCALE = -all -insts 1000000 -warmup 250000

# Regenerate every table and figure at the documented scale. Results
# persist in .fdpcache, so a re-run only simulates what changed.
experiments:
	go run ./cmd/experiments $(EXPERIMENTS_SCALE) -cache-dir .fdpcache

# The reproduction's output is a checked artifact: regenerate every table
# and figure at the documented scale, simulating every cell (no result
# cache), and diff the text against experiments_output.txt. About two
# minutes on two cores. Each experiment's wall time goes to stderr and is
# not compared.
experiments-check:
	@tmp=$$(mktemp); \
	go run ./cmd/experiments $(EXPERIMENTS_SCALE) > $$tmp && diff -u experiments_output.txt $$tmp; \
	status=$$?; rm -f $$tmp; exit $$status

# Run the simulation job service on :8080 with an on-disk result cache.
serve:
	go run ./cmd/fdpserved -addr :8080 -cache-dir .fdpcache

# go test runs one fuzz target per invocation, so the targets fuzz back
# to back (patterns anchored so a later target sharing a prefix cannot
# make -fuzz ambiguous), each named package:Fuzz under internal/.
# FuzzJobRequest drives POST /v1/jobs bodies through decode, validation
# and fingerprinting (and a short run): none may panic a service worker.
# FuzzWriterV2 holds the trace-v2 encoder to a reference encoder byte for
# byte and reads every stream back op for op.
# FuzzTreeModel hammers the controller model loader: malformed JSON must
# return ErrInvalid, never panic, and a model that loads must never
# decide out of range. FuzzBlockIndex checks the memory path's
# open-addressed block index against a Go map. FuzzStoreFile writes
# arbitrary bytes as each kind of stored file: no getter may panic, a
# hit is exactly the verified payload, and a miss unlinks every file but
# one whose header names another version. FuzzClaimFile writes them as a
# claim file and a provenance ledger: a dead claim is stolen, a
# non-owner changes no file, and an entry appended after the ledger's
# bytes is read back.
FUZZ_TARGETS = service:FuzzJobRequest trace:FuzzReaderV2 trace:FuzzWriterV2 control:FuzzTreeModel \
	series:FuzzDecode cache:FuzzBlockIndex cache:FuzzCacheLRU \
	prefetch:FuzzStreamTable store:FuzzStoreFile store:FuzzClaimFile

define fuzz-run
go test ./internal/$(firstword $(subst :, ,$(1))) -run xxx -fuzz '$(lastword $(subst :, ,$(1)))$$' -fuzztime $(FUZZTIME)

endef

# fuzz runs every target for 30 seconds; fuzz-smoke is the 10-second
# slice CI runs on every PR, so request, decoder, encoder, model-loader,
# block-index, tag-store, stream-table, stored-file and claim/ledger
# fuzz regressions surface before merge, not in nightlies.
fuzz: FUZZTIME = 30s
fuzz-smoke: FUZZTIME = 10s
fuzz fuzz-smoke:
	$(foreach t,$(FUZZ_TARGETS),$(call fuzz-run,$(t)))

clean:
	go clean ./...
	rm -rf bin

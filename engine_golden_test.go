package fdpsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The event-engine refactor (see DESIGN.md "The event engine") must be
// behaviour-preserving: same cycle counts, same miss counts, same FDP
// decisions, bit-identical Results. This test pins every workload ×
// prefetcher pair (plus static-level, prefetch-cache, multi-core and SMT
// variants) to fingerprints captured from the pre-refactor seed engine.
// A mismatch means the engine changed the model, not just its speed.
//
// Regenerate (only for deliberate model changes) with:
//
//	go test -run TestEngineGolden -update
var updateEngineGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the current engine")

const engineGoldenPath = "testdata/engine_golden.json"

// goldenBase is the shared small-scale configuration: caches sized so the
// working sets spill, TInterval shrunk so dozens of FDP intervals close
// within the 20k-instruction budget (both aggressiveness and insertion
// decisions get exercised), warmup on so the counter-reset path is pinned.
func goldenBase(kind PrefetcherKind, workload string) Config {
	cfg := WithFDP(kind)
	cfg.Workload = workload
	cfg.MaxInsts = 20_000
	cfg.WarmupInsts = 5_000
	cfg.L1Blocks = 256
	cfg.L1Ways = 4
	cfg.L1IBlocks = 256
	cfg.L1IWays = 4
	cfg.L2Blocks = 1024
	cfg.L2Ways = 16
	cfg.MSHRs = 32
	cfg.PrefQueueCap = 32
	cfg.FDP.TInterval = 64
	return cfg
}

// fingerprintJSON hashes the canonical JSON of v. Wall-clock fields must
// be zeroed by the caller; everything else in a Result is deterministic.
func fingerprintJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// goldenCase is one pinned configuration; run executes it and returns the
// fingerprint of its (Elapsed-zeroed) result.
type goldenCase struct {
	name string
	run  func(t *testing.T) string
}

func singleCase(name string, cfg Config) goldenCase {
	return goldenCase{name: name, run: func(t *testing.T) string {
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("RunContext: %v", err)
		}
		res.Elapsed = 0
		return fingerprintJSON(t, res)
	}}
}

func engineGoldenCases() []goldenCase {
	kinds := []PrefetcherKind{PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid}
	var cases []goldenCase
	for _, info := range WorkloadList() {
		w := info.Name
		for _, k := range kinds {
			// Full FDP control: dynamic aggressiveness + dynamic insertion.
			cases = append(cases, singleCase(fmt.Sprintf("%s/%s/fdp", w, k), goldenBase(k, w)))
			if k == PrefNone {
				continue
			}
			// Conventional prefetching at a fixed Table 1 level: exercises
			// the static path (no DCC updates, MRU insertion).
			cfg := goldenBase(k, w)
			cfg.StaticLevel = 4
			cfg.FDP.DynamicAggressiveness = false
			cfg.FDP.DynamicInsertion = false
			cases = append(cases, singleCase(fmt.Sprintf("%s/%s/static4", w, k), cfg))
		}
		// Prefetch-cache variant (Section 5.7): fills bypass the L2 and
		// demand hits migrate, a separate fill/lookup path worth pinning.
		pc := goldenBase(PrefStream, w)
		pc.PrefCacheBlocks = 64
		pc.PrefCacheWays = 0
		cases = append(cases, singleCase(w+"/stream/pcache", pc))
	}

	// Multi-core: private hierarchies, shared bus, mixed workloads.
	cases = append(cases, goldenCase{name: "multi/seqstream+chaserand/stream", run: func(t *testing.T) string {
		mc := MultiConfig{Cores: []Config{
			goldenBase(PrefStream, "seqstream"),
			goldenBase(PrefStream, "chaserand"),
		}}
		res, err := RunMultiContext(context.Background(), mc)
		if err != nil {
			t.Fatalf("RunMultiContext: %v", err)
		}
		for i := range res.Cores {
			res.Cores[i].Elapsed = 0
		}
		return fingerprintJSON(t, res)
	}})
	cases = append(cases, goldenCase{name: "multi/multistream+scanmod/ghb", run: func(t *testing.T) string {
		mc := MultiConfig{Cores: []Config{
			goldenBase(PrefGHB, "multistream"),
			goldenBase(PrefGHB, "scanmod"),
		}}
		res, err := RunMultiContext(context.Background(), mc)
		if err != nil {
			t.Fatalf("RunMultiContext: %v", err)
		}
		for i := range res.Cores {
			res.Cores[i].Elapsed = 0
		}
		return fingerprintJSON(t, res)
	}})

	// SMT: two hardware threads sharing one hierarchy, prefetcher and FDP
	// engine — the path where completion events must carry a thread id.
	smtBase := func(kind PrefetcherKind) Config {
		cfg := goldenBase(kind, "")
		cfg.WarmupInsts = 0 // unsupported in SMT mode
		return cfg
	}
	cases = append(cases, goldenCase{name: "smt/multistream+mixedphase/stream", run: func(t *testing.T) string {
		sc := SMTConfig{
			Base:      smtBase(PrefStream),
			Workloads: []string{"multistream", "mixedphase"},
		}
		res, err := RunSMTContext(context.Background(), sc)
		if err != nil {
			t.Fatalf("RunSMTContext: %v", err)
		}
		return fingerprintJSON(t, res)
	}})
	cases = append(cases, goldenCase{name: "smt/seqstream+chaseseq/hybrid", run: func(t *testing.T) string {
		sc := SMTConfig{
			Base:      smtBase(PrefHybrid),
			Workloads: []string{"seqstream", "chaseseq"},
		}
		res, err := RunSMTContext(context.Background(), sc)
		if err != nil {
			t.Fatalf("RunSMTContext: %v", err)
		}
		return fingerprintJSON(t, res)
	}})
	return cases
}

// TestEngineGolden cross-checks the engine against fingerprints captured
// from the seed (pre-refactor) engine: every workload × prefetcher pair
// under FDP and at a static level, plus prefetch-cache, multi-core and
// SMT variants. Any drift in any Result field fails the pair's subtest.
func TestEngineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~400 small simulations; skipped with -short")
	}
	cases := engineGoldenCases()

	if *updateEngineGolden {
		got := make(map[string]string, len(cases))
		for _, c := range cases {
			got[c.name] = c.run(t)
		}
		raw, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(engineGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), engineGoldenPath)
		return
	}

	raw, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(cases) {
		names := make(map[string]bool, len(cases))
		for _, c := range cases {
			names[c.name] = true
		}
		var stale []string
		for name := range want {
			if !names[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		t.Errorf("golden has %d entries, test has %d cases (stale: %v); regenerate with -update",
			len(want), len(cases), stale)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			wantFP, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden fingerprint for %q; regenerate with -update", c.name)
			}
			if got := c.run(t); got != wantFP {
				t.Errorf("Result fingerprint drifted from seed engine: got %s want %s", got, wantFP)
			}
		})
	}
}

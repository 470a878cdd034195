package fdpsim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestControllerEquivalence is the controller-refactor counterpart of
// TestEngineGolden: selecting the Table 2 policy *explicitly* (Config.
// Controller = "fdp", which takes the engine's direct PaperDecision call
// like the default) must reproduce the seed engine bit for bit. Every
// single-core golden FDP case reruns with the explicit controller and is
// diffed against the same checked-in fingerprints — only the Result's
// Controller echo (absent from the goldens by construction) is zeroed
// before hashing. A mismatch means the pluggable-controller path altered
// a decision, not just relabeled it.
func TestControllerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the single-core golden FDP suite; skipped with -short")
	}
	raw, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	kinds := []PrefetcherKind{PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid}
	for _, info := range WorkloadList() {
		w := info.Name
		for _, k := range kinds {
			name := fmt.Sprintf("%s/%s/fdp", w, k)
			cfg := goldenBase(k, w)
			cfg.Controller = "fdp"
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				wantFP, ok := want[name]
				if !ok {
					t.Fatalf("no golden fingerprint for %q", name)
				}
				res, err := RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				res.Elapsed = 0
				res.Controller = "" // the label is the only permitted delta
				if got := fingerprintJSON(t, res); got != wantFP {
					t.Errorf("explicit fdp controller drifted from the golden engine: got %s want %s", got, wantFP)
				}
			})
		}
	}
}

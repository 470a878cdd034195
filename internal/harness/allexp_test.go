package harness

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// Regenerate (only for a deliberate change to a table) with:
//
//	go test ./internal/harness -run TestEveryExperimentRunsAtSmallScale -update
var updateSmall = flag.Bool("update", false, "rewrite testdata/experiments_small.txt from the current experiments")

const smallGoldenPath = "testdata/experiments_small.txt"

// noCells lists the experiments that simulate no single-core cell: the
// static tables and the two that call the multi-core runners.
var noCells = map[string]bool{
	"table1": true, "table2": true, "table3": true, "table6": true,
	"multicore": true, "sharedl2": true,
}

// progressCall is one Progress.OnRun call.
type progressCall struct {
	done, total int
	spec        RunSpec
}

// TestEveryExperimentRunsAtSmallScale executes every registered experiment
// end-to-end at a tiny instruction budget, a small twin of
// experiments_output.txt. Each experiment must build valid configurations,
// survive its sweep and render non-empty tables; the rendered text, as
// cmd/experiments prints it, must equal testdata/experiments_small.txt;
// and each experiment that simulates single-core cells must run them as
// one grid, so its progress reports one total that done reaches once.
func TestEveryExperimentRunsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	p := Params{Insts: 8_000, Warmup: 2_000, TInterval: 256, Seed: 1, Workers: 2, Memo: store.NewMemo(nil)}
	var out strings.Builder
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var (
				mu    sync.Mutex
				calls []progressCall
			)
			p := p
			p.Progress = &Progress{OnRun: func(done, total int, spec RunSpec, _ sim.Result, _ time.Duration, _ error) {
				mu.Lock()
				calls = append(calls, progressCall{done, total, spec})
				mu.Unlock()
			}}
			tables, err := e.Run(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			fmt.Fprintf(&out, "=== %s: %s\n\n", e.ID, e.Title)
			for _, tbl := range tables {
				if tbl.Title == "" || len(tbl.Header) == 0 {
					t.Fatalf("%s produced a malformed table: %+v", e.ID, tbl)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) > len(tbl.Header) {
						t.Fatalf("%s table %q row wider than header: %v", e.ID, tbl.Title, row)
					}
				}
				tbl.Render(&out)
			}
			checkOneGrid(t, e.ID, calls)
		})
	}
	got := out.String()
	if *updateSmall {
		if err := os.WriteFile(smallGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if t.Failed() {
		return // a missing experiment makes the text diff noise
	}
	want, err := os.ReadFile(smallGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("experiment tables differ from %s (regenerate with -update only for a deliberate change):\n%s",
			smallGoldenPath, firstDiff(string(want), got))
	}
}

// checkOneGrid holds an experiment's progress calls to one RunAll: every
// call carries one total, done counts 1..total once each, and an
// experiment simulates cells exactly when it is not in noCells. The
// tinterval ablation's cells must each run at their column's interval.
func checkOneGrid(t *testing.T, id string, calls []progressCall) {
	t.Helper()
	if noCells[id] {
		if len(calls) != 0 {
			t.Errorf("%s reported %d runs, want none", id, len(calls))
		}
		return
	}
	if len(calls) == 0 {
		t.Errorf("%s reported no runs; its cells bypass RunAll", id)
		return
	}
	total := calls[0].total
	seen := map[int]int{}
	for _, c := range calls {
		if c.total != total {
			t.Errorf("%s reported totals %d and %d; its cells run in more than one grid", id, total, c.total)
			return
		}
		seen[c.done]++
	}
	for d := 1; d <= total; d++ {
		if seen[d] != 1 {
			t.Errorf("%s: done=%d reported %d times over %d calls, want once", id, d, seen[d], len(calls))
			return
		}
	}
	if id != "tinterval" {
		return
	}
	for _, c := range calls {
		want, err := strconv.ParseUint(c.spec.Config, 10, 64)
		if err != nil || c.spec.Cfg.FDP.TInterval != want {
			t.Errorf("tinterval cell %s/%s ran at T_interval %d", c.spec.Workload, c.spec.Config, c.spec.Cfg.FDP.TInterval)
		}
	}
}

// firstDiff shows the first differing line of two texts with its number.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(no line differs)"
}

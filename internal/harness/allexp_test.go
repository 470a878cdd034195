package harness

import (
	"context"
	"testing"

	"fdpsim/internal/store"
)

// TestEveryExperimentRunsAtSmallScale executes every registered experiment
// end-to-end at a tiny instruction budget: a structural regression test
// that each experiment builds valid configurations, survives its sweep,
// and renders non-empty tables.
func TestEveryExperimentRunsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	p := Params{Insts: 8_000, Warmup: 2_000, TInterval: 256, Seed: 1, Workers: 2, Memo: store.NewMemo(nil)}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
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
			}
		})
	}
}

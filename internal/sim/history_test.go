package sim

import (
	"context"
	"testing"
)

func TestKeepFDPHistory(t *testing.T) {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.FDP.TInterval = 1024
	cfg.KeepFDPHistory = true
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.History)) != res.Intervals {
		t.Fatalf("history has %d records, intervals = %d", len(res.History), res.Intervals)
	}
	if len(res.History) == 0 {
		t.Fatal("no intervals recorded")
	}
	for i, r := range res.History {
		if r.Case.Case < 1 || r.Case.Case > 12 {
			t.Fatalf("record %d: invalid Table 2 case %d", i, r.Case.Case)
		}
		if r.Level < 1 || r.Level > 5 {
			t.Fatalf("record %d: level %d out of range", i, r.Level)
		}
		if r.Accuracy < 0 || r.Accuracy > 1 || r.Lateness < 0 || r.Lateness > 1 || r.Pollution < 0 || r.Pollution > 1 {
			t.Fatalf("record %d: metrics out of range: %+v", i, r)
		}
	}
	// The hostile chase must end throttled with Decrement-dominated history.
	decrements := 0
	for _, r := range res.History {
		if r.Case.Update < 0 {
			decrements++
		}
	}
	if decrements*2 < len(res.History) {
		t.Fatalf("only %d of %d intervals decremented on a hostile workload", decrements, len(res.History))
	}

	// History is off by default.
	cfg.KeepFDPHistory = false
	res2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.History) != 0 {
		t.Fatal("history recorded without KeepFDPHistory")
	}
}

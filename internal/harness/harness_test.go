package harness

import (
	"context"
	"strings"
	"testing"

	"fdpsim/internal/sim"
	"fdpsim/internal/store"
	"fdpsim/internal/workload/spec"
)

func testParams() Params {
	return Params{Insts: 15_000, TInterval: 512, Seed: 1, Workers: 2}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"accuracyonly", "buswidth", "controllers", "cycleacct", "dahlgren", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "filtersize", "hybrid",
		"multicore", "perstream", "seriesdiff", "sharedl2", "stride", "table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"thresholds", "timeline", "tinterval",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Fatal("Lookup(fig9) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
}

func TestStaticTablesRender(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table6"} {
		e, _ := Lookup(id)
		tables, err := e.Run(context.Background(), Params{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		var sb strings.Builder
		for i := range tables {
			tables[i].Render(&sb)
		}
		out := sb.String()
		if !strings.Contains(out, tables[0].Title) {
			t.Fatalf("%s render missing title", id)
		}
	}
}

func TestTable2RenderMatchesPaperRows(t *testing.T) {
	e, _ := Lookup("table2")
	tables, _ := e.Run(context.Background(), Params{})
	var sb strings.Builder
	tables[0].Render(&sb)
	for _, frag := range []string{"best case configuration", "to save bandwidth", "Increment", "Decrement"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("table2 render missing %q", frag)
		}
	}
}

func TestRunAllParallelAndMemoized(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	specs := []RunSpec{
		{Workload: "tinyloop", Config: "a", Job: sim.Job{Cfg: withWorkload(cfg, "tinyloop")}},
		{Workload: "cachefit", Config: "a", Job: sim.Job{Cfg: withWorkload(cfg, "cachefit")}},
	}
	p := Params{Workers: 2, Memo: store.NewMemo(nil)}
	g, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	r1 := g.MustGet("tinyloop", "a")
	if r1.IPC <= 0 {
		t.Fatal("empty result")
	}
	// Second run must return the memoized result (same values).
	g2, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.MustGet("tinyloop", "a").IPC != r1.IPC {
		t.Fatal("memoized result differs")
	}
	if _, ok := g.Get("missing", "a"); ok {
		t.Fatal("Get of missing cell succeeded")
	}
}

func withWorkload(cfg sim.Config, w string) sim.Config {
	cfg.Workload = w
	return cfg
}

func TestRunAllPropagatesErrors(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 1000
	cfg.Workload = "does-not-exist"
	_, err := RunAll(context.Background(), []RunSpec{{Workload: "x", Config: "y", Job: sim.Job{Cfg: cfg}}}, Params{Workers: 1})
	if err == nil {
		t.Fatal("bad workload did not error")
	}
}

func TestSmallExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e, _ := Lookup("fig14")
	tables, err := e.Run(context.Background(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig14 produced %d tables", len(tables))
	}
	// 9 workloads + mean row.
	if len(tables[0].Rows) != 10 {
		t.Fatalf("fig14 IPC table has %d rows", len(tables[0].Rows))
	}
}

func TestMetricTableAveraging(t *testing.T) {
	g := &Grid{results: map[string]sim.Result{
		"w1\x00c": {IPC: 1, BPKI: 10},
		"w2\x00c": {IPC: 4, BPKI: 30},
	}}
	tbl := metricTable("t", "", []string{"w1", "w2"}, []string{"c"}, g, ipcOf, f3, true)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "gmean" || last[1] != "2.000" {
		t.Fatalf("gmean row = %v", last)
	}
	tbl = metricTable("t", "", []string{"w1", "w2"}, []string{"c"}, g, bpkiOf, f1, false)
	last = tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "amean" || last[1] != "20.0" {
		t.Fatalf("amean row = %v", last)
	}
}

func TestFormatHelpers(t *testing.T) {
	if pct(0.123) != "12.3%" || f3(1.5) != "1.500" || f2(1.25) != "1.25" || f1(3.14) != "3.1" {
		t.Fatal("format helpers wrong")
	}
	if deltaPct(2, 3) != "+50.0%" || deltaPct(0, 1) != "n/a" {
		t.Fatal("deltaPct wrong")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Insts == 0 || p.Workers == 0 || p.TInterval == 0 {
		t.Fatalf("defaults incomplete: %+v", p)
	}
	cfg := p.apply(sim.Default())
	if cfg.MaxInsts != p.Insts || cfg.FDP.TInterval != p.TInterval {
		t.Fatal("apply did not stamp params")
	}
}

func TestConfigBuilders(t *testing.T) {
	if c := dynAggr(sim.PrefStream); !c.FDP.DynamicAggressiveness || c.FDP.DynamicInsertion {
		t.Fatal("dynAggr flags wrong")
	}
	if c := dynIns(sim.PrefStream); c.FDP.DynamicAggressiveness || !c.FDP.DynamicInsertion || c.StaticLevel != 5 {
		t.Fatal("dynIns flags wrong")
	}
	if c := fullFDP(sim.PrefStream); !c.FDP.DynamicAggressiveness || !c.FDP.DynamicInsertion {
		t.Fatal("fullFDP flags wrong")
	}
	if c := accuracyOnly(sim.PrefStream); !c.FDP.AccuracyOnly {
		t.Fatal("accuracyOnly flag missing")
	}
	if c := withPrefCache(sim.PrefStream, 2); c.PrefCacheBlocks != 32 || c.PrefCacheWays != 0 {
		t.Fatalf("2KB prefetch cache = %d blocks, %d ways", c.PrefCacheBlocks, c.PrefCacheWays)
	}
	if c := withPrefCache(sim.PrefStream, 32); c.PrefCacheBlocks != 512 || c.PrefCacheWays != 16 {
		t.Fatal("32KB prefetch cache wrong")
	}
}

// harnessSpec is a small single-lane WorkloadSpec for grid tests.
func harnessSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name: name,
		Phases: []spec.Phase{
			{Ops: 4000, Clients: []spec.Client{
				{Name: "scan", Pattern: spec.Pattern{Kind: spec.KindStride, FootprintKB: 1024, Gap: 1}},
				{Name: "serve", Weight: 2, Pattern: spec.Pattern{Kind: spec.KindChase, FootprintKB: 256}},
			}},
		},
	}
}

func TestSpecGridRunAll(t *testing.T) {
	sp := harnessSpec("grid.mix")
	configs := map[string]sim.Config{
		cfgVA:  static(sim.PrefStream, 5),
		cfgFDP: fullFDP(sim.PrefStream),
	}
	order := []string{cfgVA, cfgFDP}
	p := Params{Insts: 10_000, TInterval: 256, Seed: 3, Workers: 2, Memo: store.NewMemo(nil)}
	specs := SpecGrid([]*spec.Spec{sp}, configs, order, p)
	if len(specs) != 2 {
		t.Fatalf("SpecGrid built %d cells, want 2", len(specs))
	}
	for _, s := range specs {
		if s.Spec != sp || s.Workload != "grid.mix" || s.Cfg.Workload != "grid.mix" {
			t.Fatalf("malformed cell: %+v", s)
		}
		if s.Cfg.MaxInsts != p.Insts || s.Cfg.Seed != p.Seed {
			t.Fatal("params not stamped on spec cells")
		}
	}
	g, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	r := g.MustGet("grid.mix", cfgFDP)
	if r.IPC <= 0 || r.Workload != "grid.mix" {
		t.Fatalf("spec cell result: %+v", r)
	}
	// Spec cells memoize under FingerprintSpec: a second RunAll is a pure
	// cache hit with identical values.
	g2, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.MustGet("grid.mix", cfgFDP).Counters != r.Counters {
		t.Fatal("memoized spec result differs")
	}
	// A named cell with the same workload string must not alias the spec
	// cell's memo entry (FingerprintSpec is domain-separated).
	fpSpec, ok := sim.FingerprintSpec(specs[0].Cfg, sp)
	if !ok {
		t.Fatal("FingerprintSpec failed")
	}
	if fpNamed, ok := sim.Fingerprint(specs[0].Cfg); ok && fpNamed == fpSpec {
		t.Fatal("spec and named fingerprints alias")
	}
}

func TestSpecGridInvalidSpecPropagates(t *testing.T) {
	bad := &spec.Spec{Name: "bad"}
	p := Params{Insts: 1000, Workers: 1}
	specs := SpecGrid([]*spec.Spec{bad}, map[string]sim.Config{"a": sim.Default()}, []string{"a"}, p)
	if _, err := RunAll(context.Background(), specs, p); err == nil {
		t.Fatal("invalid spec cell did not error")
	}
}

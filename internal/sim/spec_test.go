package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"fdpsim/internal/trace"
	"fdpsim/internal/workload/spec"
)

// specTestConfig mirrors the golden test's small-scale configuration so
// spec runs exercise real cache pressure quickly.
func specTestConfig() Config {
	cfg := Default()
	cfg.MaxInsts = 60000
	cfg.L1Blocks = 128
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

func oneLaneSpec() *spec.Spec {
	return &spec.Spec{
		Name: "spec.single",
		Phases: []spec.Phase{
			{Ops: 8000, Clients: []spec.Client{
				{Name: "stream", Weight: 3, Pattern: spec.Pattern{
					Kind: spec.KindStride, FootprintKB: 2048, Gap: 1,
					Strides: []spec.Stride{{Bytes: 64, Weight: 8}, {Bytes: 192, Weight: 2}},
				}},
				{Name: "chase", BurstOn: 2, BurstOff: 4, Pattern: spec.Pattern{
					Kind: spec.KindChase, FootprintKB: 1024,
				}},
			}},
			{Ops: 8000, Clients: []spec.Client{
				{Name: "hot", Pattern: spec.Pattern{
					Kind: spec.KindHotset, WorkingSetKB: 128, Gap: 2, StoreEvery: 5,
				}},
			}},
		},
	}
}

func twoLaneSpec() *spec.Spec {
	sp := oneLaneSpec()
	sp.Name = "spec.duo"
	sp.Phases[0].Clients[1].Lane = 1
	sp.Phases[1].Clients = append(sp.Phases[1].Clients, spec.Client{
		Name: "rand", Lane: 1, Pattern: spec.Pattern{Kind: spec.KindRandom, FootprintKB: 4096, Gap: 1},
	})
	return sp
}

// resultJSON canonicalizes a Result for comparison (wall clock zeroed).
func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	r.Elapsed = 0
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunSpecGoldenDeterminism is the reproducibility acceptance test:
// the same (spec, seed) yields an identical fingerprint, bit-identical
// results across two independent in-memory runs, byte-identical trace-v2
// recordings — and a replay of that recording reproduces the in-memory
// result exactly.
func TestRunSpecGoldenDeterminism(t *testing.T) {
	sp := oneLaneSpec()
	cfg := specTestConfig()
	cfg.Seed = 99

	fp1, ok := FingerprintSpec(cfg, sp)
	if !ok {
		t.Fatal("FingerprintSpec not ok")
	}
	fp2, _ := FingerprintSpec(cfg, sp)
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable: %s vs %s", fp1, fp2)
	}

	r1, err := RunSpecContext(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpecContext(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, r1), resultJSON(t, r2)) {
		t.Fatal("two in-memory runs of the same (spec, seed) differ")
	}

	// Record the spec to trace-v2 twice: byte-identical files. The retire
	// target plus slack covers every op the pipeline fetches past it.
	record := func() []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriterV2(&buf, sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		src := sp.Source(0, cfg.Seed)
		for i := uint64(0); i < cfg.MaxInsts+8192; i++ {
			if err := w.Write(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t1, t2 := record(), record()
	if !bytes.Equal(t1, t2) {
		t.Fatal("two trace-v2 recordings of the same (spec, seed) differ")
	}

	// Replaying the recording must reproduce the in-memory result bit for
	// bit: the trace front end is equivalent to generating in memory.
	r, err := trace.NewReaderV2(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Workload = sp.Name
	r3, err := RunSourceContext(context.Background(), replayCfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, r1), resultJSON(t, r3)) {
		t.Fatal("trace-v2 replay result differs from the in-memory run")
	}
	if r.Err() != nil {
		t.Fatalf("replay reader error: %v", r.Err())
	}
}

func TestRunSpecSeedSensitivity(t *testing.T) {
	sp := oneLaneSpec()
	cfg := specTestConfig()
	cfg.Seed = 1
	r1, err := RunSpecContext(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	r2, err := RunSpecContext(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(resultJSON(t, r1), resultJSON(t, r2)) {
		t.Fatal("different seeds produced identical results")
	}
	if r1.Workload != "spec.single" {
		t.Fatalf("Result.Workload = %q, want the spec name", r1.Workload)
	}
}

func TestRunSpecErrors(t *testing.T) {
	cfg := specTestConfig()
	if _, err := RunSpecContext(context.Background(), cfg, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil spec: %v", err)
	}
	if _, err := RunSpecContext(context.Background(), cfg, &spec.Spec{Name: "x"}); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("invalid spec: %v", err)
	}
	if _, err := RunSpecContext(context.Background(), cfg, twoLaneSpec()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("multi-lane spec on one core: %v", err)
	}
}

func TestRunSpecMulti(t *testing.T) {
	sp := twoLaneSpec()
	tmpl := specTestConfig()
	tmpl.MaxInsts = 30000
	res, err := RunSpecMultiContext(context.Background(), tmpl, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("got %d cores, want 2", len(res.Cores))
	}
	for i, cr := range res.Cores {
		if cr.Workload != "spec.duo" {
			t.Fatalf("core %d workload = %q", i, cr.Workload)
		}
		if cr.Counters.Retired == 0 {
			t.Fatalf("core %d retired nothing", i)
		}
	}
	// Deterministic too.
	res2, err := RunSpecMultiContext(context.Background(), tmpl, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res2.Cycles || res.TotalBusAccesses != res2.TotalBusAccesses {
		t.Fatal("multicore spec run not reproducible")
	}
}

func TestRunSpecSMT(t *testing.T) {
	sp := twoLaneSpec()
	base := specTestConfig()
	base.MaxInsts = 30000
	res, err := RunSpecSMTContext(context.Background(), base, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("got %d threads, want 2", len(res.Threads))
	}
	for i, th := range res.Threads {
		if th.Workload != "spec.duo" || th.Retired == 0 {
			t.Fatalf("thread %d: %+v", i, th)
		}
	}
}

// TestValidateSpecJob covers Job.Validate for spec runs: the spec must
// validate and fit on one core, the workload name is not consulted, and
// the configuration rules of named runs still hold.
func TestValidateSpecJob(t *testing.T) {
	cfg := specTestConfig()
	unknown := cfg
	unknown.Workload = "no-such-workload"
	cust := cfg
	cust.Prefetcher = PrefCustom
	checkJobValidate(t, []jobValidateCase{
		{"spec", Job{Cfg: cfg, Spec: oneLaneSpec()}, nil},
		{"spec with an unknown workload name", Job{Cfg: unknown, Spec: oneLaneSpec()}, nil},
		{"invalid spec", Job{Cfg: cfg, Spec: &spec.Spec{Name: "x"}}, spec.ErrInvalid},
		{"multi-lane spec", Job{Cfg: cfg, Spec: twoLaneSpec()}, ErrInvalidConfig},
		{"spec with a custom prefetcher", Job{Cfg: cust, Spec: oneLaneSpec()}, ErrInvalidConfig},
	})
}

func TestFingerprintSpecProperties(t *testing.T) {
	cfg := specTestConfig()
	sp := oneLaneSpec()

	fp, ok := FingerprintSpec(cfg, sp)
	if !ok || fp == "" {
		t.Fatal("FingerprintSpec failed on a valid pair")
	}
	// Never aliases a named-workload fingerprint of the same config.
	named := cfg
	named.Workload = sp.Name
	if nfp, ok := Fingerprint(named); ok && nfp == fp {
		t.Fatal("spec fingerprint aliases the named-workload fingerprint")
	}
	// Sensitive to the spec...
	mut := oneLaneSpec()
	mut.Phases[0].Clients[0].Weight = 4
	if fp2, _ := FingerprintSpec(cfg, mut); fp2 == fp {
		t.Fatal("fingerprint ignores spec changes")
	}
	// ...and to the config...
	cfg2 := cfg
	cfg2.MaxInsts++
	if fp3, _ := FingerprintSpec(cfg2, sp); fp3 == fp {
		t.Fatal("fingerprint ignores config changes")
	}
	// ...but not to spelled-out defaults.
	dflt := oneLaneSpec()
	dflt.Phases[1].Clients[0].Weight = 1
	dflt.Phases[1].Clients[0].BurstOn = 1
	if fp4, _ := FingerprintSpec(cfg, dflt); fp4 != fp {
		t.Fatal("explicit defaults changed the fingerprint")
	}
	// Custom prefetchers and nil/invalid specs are not fingerprintable.
	bad := cfg
	bad.Prefetcher = PrefCustom
	if _, ok := FingerprintSpec(bad, sp); ok {
		t.Fatal("custom prefetcher fingerprinted")
	}
	if _, ok := FingerprintSpec(cfg, nil); ok {
		t.Fatal("nil spec fingerprinted")
	}
	if _, ok := FingerprintSpec(cfg, &spec.Spec{Name: "x"}); ok {
		t.Fatal("invalid spec fingerprinted")
	}
}

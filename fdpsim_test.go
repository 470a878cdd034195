package fdpsim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Example demonstrates the README quickstart: one FDP run on the
// prefetch-hostile chase, reporting the metrics FDP estimates in hardware.
func Example() {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 100_000
	cfg.FDP.TInterval = 1024
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("accuracy below 40%%: %v\n", res.Accuracy < 0.40)
	fmt.Printf("throttled below Middle: %v\n", res.FinalLevel < 3)
	// Output:
	// accuracy below 40%: true
	// throttled below Middle: true
}

// ExampleRunMultiContext demonstrates a two-core run on the shared bus.
func ExampleRunMultiContext() {
	var mc MultiConfig
	for _, w := range []string{"seqstream", "tinyloop"} {
		cfg := Conventional(PrefStream, 5)
		cfg.Workload = w
		cfg.MaxInsts = 50_000
		mc.Cores = append(mc.Cores, cfg)
	}
	res, err := RunMultiContext(context.Background(), mc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cores: %d, both progressed: %v\n",
		len(res.Cores), res.Cores[0].IPC > 0 && res.Cores[1].IPC > 0)
	// Output:
	// cores: 2, both progressed: true
}

func TestFacadeWorkloadLists(t *testing.T) {
	all := WorkloadList()
	mi := WorkloadList(WorkloadTagMemIntensive)
	lp := WorkloadList(WorkloadTagLowPotential)
	if len(mi) != 17 || len(lp) != 9 || len(all) != 26 {
		t.Fatalf("workload sets: %d mem-intensive, %d low-potential, %d total", len(mi), len(lp), len(all))
	}
	for _, info := range all {
		if info.About == "" {
			t.Errorf("workload %s undescribed", info.Name)
		}
	}
}

func TestFacadeRun(t *testing.T) {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "regionwalk"
	cfg.MaxInsts = 30_000
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Workload != "regionwalk" || res.Prefetcher != "stream" {
		t.Fatalf("result = %+v", res)
	}
}

func TestFacadeRunSourceWithCustomPrefetcher(t *testing.T) {
	cfg := Conventional(PrefCustom, 5)
	cfg.Custom = &tagAlong{}
	cfg.MaxInsts = 20_000
	res, err := RunSourceContext(context.Background(), cfg, &rampSource{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PrefSent == 0 {
		t.Fatal("custom prefetcher sent nothing")
	}
}

func TestFacadeCustomRequiresInstance(t *testing.T) {
	cfg := Conventional(PrefCustom, 5)
	cfg.Workload = "seqstream"
	if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "Custom") {
		t.Fatalf("missing Custom accepted: %v", err)
	}
}

// TestFacadeConfigErrors checks the typed configuration errors callers
// branch on: Validate and RunContext report an invalid configuration as
// ErrInvalidConfig, and RunContext an unregistered workload as
// ErrUnknownWorkload.
func TestFacadeConfigErrors(t *testing.T) {
	bad := Conventional(PrefStream, 9)
	if err := bad.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("level 9: Validate = %v, want ErrInvalidConfig", err)
	}
	if _, err := RunContext(context.Background(), bad); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("level 9: RunContext = %v, want ErrInvalidConfig", err)
	}
	cfg := WithFDP(PrefStream)
	cfg.Workload = "nope"
	if _, err := RunContext(context.Background(), cfg); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: RunContext = %v, want ErrUnknownWorkload", err)
	}
}

// tagAlong prefetches the next block on every miss.
type tagAlong struct{ level int }

func (p *tagAlong) Name() string       { return "tagalong" }
func (p *tagAlong) SetLevel(level int) { p.level = level }
func (p *tagAlong) Level() int         { return p.level }
func (p *tagAlong) Observe(ev *PrefetchEvent, out []uint64) []uint64 {
	if !ev.Miss {
		return out
	}
	return append(out, ev.Block+1)
}

// rampSource emits one streaming load every fourth op.
type rampSource struct{ i uint64 }

func (s *rampSource) Name() string { return "ramp" }
func (s *rampSource) Next() MicroOp {
	s.i++
	if s.i%4 == 0 {
		return MicroOp{Kind: OpLoad, Addr: s.i * 16, PC: 0x600000}
	}
	return MicroOp{Kind: OpNop}
}

// TestFacadeWorkloadList covers the tag-based registry view: AND
// filtering, name order and complete entries.
func TestFacadeWorkloadList(t *testing.T) {
	all := WorkloadList()
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Fatal("WorkloadList not sorted by name")
	}
	if got := WorkloadList(WorkloadTagBuiltin, WorkloadTagLowPotential); len(got) != 9 {
		t.Fatalf("AND filter: %d, want 9", len(got))
	}
	for _, info := range all {
		if info.Name == "" || info.About == "" || len(info.Tags) == 0 {
			t.Fatalf("incomplete WorkloadInfo: %+v", info)
		}
	}
}

// TestFacadeRunSpec drives a WorkloadSpec through the public facade:
// parse from YAML, fingerprint, run, reproduce.
func TestFacadeRunSpec(t *testing.T) {
	sp, err := ParseSpec([]byte(`
name: facade.mix
phases:
  - clients:
      - weight: 2
        pattern:
          kind: stride
          footprint_kb: 1024
          gap: 1
      - burst_on: 2
        burst_off: 6
        pattern:
          kind: chase
          footprint_kb: 512
`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := WithFDP(PrefStream)
	cfg.MaxInsts = 40_000
	cfg.FDP.TInterval = 256
	fp, ok := SpecFingerprint(cfg, sp)
	if !ok || fp == "" {
		t.Fatal("SpecFingerprint failed")
	}
	res, err := RunSpec(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "facade.mix" || res.IPC <= 0 {
		t.Fatalf("unexpected result: workload=%q IPC=%v", res.Workload, res.IPC)
	}
	res2, err := RunSpec(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != res2.Counters {
		t.Fatal("facade spec run not reproducible")
	}
	if _, err := ParseSpec([]byte(`name: "Bad Name"`)); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("invalid spec error: %v", err)
	}
}

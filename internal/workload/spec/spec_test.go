package spec

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fdpsim/internal/cpu"
)

// twoPhase is a representative spec exercising every pattern kind, two
// lanes, bursts, skewed weights and an empirical stride distribution.
func twoPhase() *Spec {
	return &Spec{
		Name:  "svc.mixed",
		About: "two-phase mixed service",
		Phases: []Phase{
			{
				Name: "scan",
				Ops:  20000,
				Clients: []Client{
					{Name: "stream", Lane: 0, Weight: 3, Pattern: Pattern{
						Kind: KindStride, FootprintKB: 4096,
						Strides: []Stride{{Bytes: 64, Weight: 9}, {Bytes: -128, Weight: 1}},
					}},
					{Name: "pointer", Lane: 1, BurstOn: 4, BurstOff: 8, Pattern: Pattern{
						Kind: KindChase, FootprintKB: 2048, RunBlocks: 2,
					}},
				},
			},
			{
				Name: "serve",
				Ops:  20000,
				Clients: []Client{
					{Name: "rand", Lane: 0, Pattern: Pattern{
						Kind: KindRandom, FootprintKB: 8192, RunBlocks: 3, StoreEvery: 4,
					}},
					{Name: "hot", Lane: 1, Weight: 2, Pattern: Pattern{
						Kind: KindHotset, WorkingSetKB: 256, Gap: 2, GapJitter: 3, StoreEvery: 8,
					}},
				},
			},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := twoPhase().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// At the bounds: a chase client whose turn is exactly maxTurnOps ops
	// (4 × (2 + 16378) + 16), over the whole 16 GB window.
	s := twoPhase()
	c := &s.Phases[0].Clients[1]
	c.BurstOff = 16
	c.Pattern.Gap = 16378
	c.Pattern.FootprintKB = maxFootprintKB
	if got := c.turnOps(); got != maxTurnOps {
		t.Fatalf("turnOps = %d, want %d", got, maxTurnOps)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("spec at the bounds rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "name"},
		{"upper name", func(s *Spec) { s.Name = "Bad" }, "name"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"zero ops multi-phase", func(s *Spec) { s.Phases[0].Ops = 0 }, "ops is required"},
		{"no clients", func(s *Spec) { s.Phases[0].Clients = nil }, "no clients"},
		{"negative lane", func(s *Spec) { s.Phases[0].Clients[0].Lane = -1 }, "lane"},
		{"lane too high", func(s *Spec) { s.Phases[0].Clients[0].Lane = MaxLanes }, "lane"},
		{"negative weight", func(s *Spec) { s.Phases[0].Clients[0].Weight = -1 }, "weight"},
		{"negative burst", func(s *Spec) { s.Phases[0].Clients[1].BurstOff = -1 }, "burst"},
		{"missing kind", func(s *Spec) { s.Phases[0].Clients[0].Pattern.Kind = "" }, "kind is required"},
		{"unknown kind", func(s *Spec) { s.Phases[0].Clients[0].Pattern.Kind = "zigzag" }, "unknown pattern kind"},
		{"negative gap", func(s *Spec) { s.Phases[0].Clients[0].Pattern.Gap = -1 }, "non-negative"},
		{"run_blocks too high", func(s *Spec) { s.Phases[0].Clients[1].Pattern.RunBlocks = 65 }, "run_blocks"},
		{"burst_off past a turn", func(s *Spec) { s.Phases[0].Clients[1].BurstOff = maxTurnOps - 7 }, "one turn"}, // 4 × 2 + 65529
		{"burst_on past a turn", func(s *Spec) { s.Phases[0].Clients[0].BurstOn = maxTurnOps + 1 }, "one turn"},
		{"gap_jitter far past a turn", func(s *Spec) { s.Phases[1].Clients[1].Pattern.GapJitter = 1 << 62 }, "one turn"},
		{"bursts of long gaps", func(s *Spec) {
			s.Phases[0].Clients[1].Pattern.Gap = maxTurnOps / 4 // 4 × (2 + 16384) + 8
		}, "one turn"},
		{"footprint past the client window", func(s *Spec) { s.Phases[0].Clients[0].Pattern.FootprintKB = maxFootprintKB + 1 }, "16 GB"},
		{"working set past the client window", func(s *Spec) { s.Phases[1].Clients[1].Pattern.WorkingSetKB = 1 << 60 }, "16 GB"},
		{"zero stride", func(s *Spec) { s.Phases[0].Clients[0].Pattern.Strides[0].Bytes = 0 }, "zero bytes"},
		{"negative stride weight", func(s *Spec) { s.Phases[0].Clients[0].Pattern.Strides[0].Weight = -2 }, "negative weight"},
		{"strides on chase", func(s *Spec) {
			s.Phases[0].Clients[1].Pattern.Strides = []Stride{{Bytes: 64}}
		}, "only apply to stride"},
		{"working set on stride", func(s *Spec) {
			s.Phases[0].Clients[0].Pattern.WorkingSetKB = 64
		}, "working_set_kb"},
		{"footprint on hotset", func(s *Spec) {
			s.Phases[1].Clients[1].Pattern.FootprintKB = 64
		}, "working_set_kb"},
		{"lane gap", func(s *Spec) {
			for pi := range s.Phases {
				for ci := range s.Phases[pi].Clients {
					if s.Phases[pi].Clients[ci].Lane == 1 {
						s.Phases[pi].Clients[ci].Lane = 2
					}
				}
			}
		}, "contiguous"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := twoPhase()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error %v does not wrap ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLanes(t *testing.T) {
	s := twoPhase()
	if got := s.Lanes(); got != 2 {
		t.Fatalf("Lanes() = %d, want 2", got)
	}
	single := &Spec{Name: "one", Phases: []Phase{{Clients: []Client{
		{Pattern: Pattern{Kind: KindStride}},
	}}}}
	if got := single.Lanes(); got != 1 {
		t.Fatalf("Lanes() = %d, want 1", got)
	}
}

// TestCanonicalDefaults: a spec spelling out defaults and one omitting
// them must share canonical bytes, since they generate identical streams.
func TestCanonicalDefaults(t *testing.T) {
	implicit := &Spec{Name: "w", Phases: []Phase{{Clients: []Client{
		{Pattern: Pattern{Kind: KindStride}},
	}}}}
	explicit := &Spec{Name: "w", Phases: []Phase{{Clients: []Client{
		{Weight: 1, BurstOn: 1, Pattern: Pattern{
			Kind:        KindStride,
			FootprintKB: defaultFootprintKB,
			Strides:     []Stride{{Bytes: BlockBytes, Weight: 1}},
		}},
	}}}}
	a, err := implicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
	// Canonical must reject invalid specs.
	if _, err := (&Spec{}).Canonical(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Canonical on zero spec: got %v, want ErrInvalid", err)
	}
}

// TestSourceDeterminism: two generators built from the same (spec, seed)
// must produce identical micro-op streams; a different seed must not.
func TestSourceDeterminism(t *testing.T) {
	s := twoPhase()
	const n = 200000
	for lane := 0; lane < s.Lanes(); lane++ {
		a := s.Source(lane, 42)
		b := s.Source(lane, 42)
		c := s.Source(lane, 43)
		differ := false
		for i := 0; i < n; i++ {
			opA, opB, opC := a.Next(), b.Next(), c.Next()
			if opA != opB {
				t.Fatalf("lane %d op %d: same seed diverged: %+v vs %+v", lane, i, opA, opB)
			}
			if opA != opC {
				differ = true
			}
		}
		if !differ {
			t.Fatalf("lane %d: seeds 42 and 43 produced identical %d-op streams", lane, n)
		}
	}
}

// TestSourceShape checks the generated stream's gross structure: every
// pattern kind emits memory ops, addresses stay inside each client's
// private 16 GB window, stores appear when store_every asks for them, and
// chase loads carry dependence distances within the load-ring bound.
func TestSourceShape(t *testing.T) {
	s := twoPhase()
	const n = 100000
	for lane := 0; lane < s.Lanes(); lane++ {
		src := s.Source(lane, 7)
		if src.Name() != s.Name {
			t.Fatalf("Name() = %q, want %q", src.Name(), s.Name)
		}
		var loads, stores, deps int
		for i := 0; i < n; i++ {
			op := src.Next()
			switch op.Kind {
			case cpu.Load:
				loads++
				if op.Dep < 0 || op.Dep > loadRingDeps {
					t.Fatalf("lane %d: dep %d outside [0,%d]", lane, op.Dep, loadRingDeps)
				}
				if op.Dep > 0 {
					deps++
				}
			case cpu.Store:
				stores++
			}
			if op.Kind != cpu.Nop && op.Addr>>34 == 0 {
				t.Fatalf("lane %d: address %#x below the first client window", lane, op.Addr)
			}
		}
		if loads == 0 {
			t.Fatalf("lane %d emitted no loads in %d ops", lane, n)
		}
		if stores == 0 {
			t.Fatalf("lane %d emitted no stores in %d ops (store_every clients present)", lane, n)
		}
		if lane == 1 && deps == 0 {
			t.Fatal("lane 1 has a chase client but no dependent loads")
		}
	}
}

// TestSourcesLanes: Sources returns one generator per lane and a
// single-lane spec still works end to end.
func TestSourcesLanes(t *testing.T) {
	s := twoPhase()
	srcs := s.Sources(1)
	if len(srcs) != 2 {
		t.Fatalf("Sources returned %d lanes, want 2", len(srcs))
	}
	for i, src := range srcs {
		if src == nil {
			t.Fatalf("lane %d source is nil", i)
		}
		src.Next() // must not hang or panic
	}
}

// TestIdleLanePhase: a lane with no client in one phase idles through it
// and resumes in the next — the generator must keep making progress.
func TestIdleLanePhase(t *testing.T) {
	s := &Spec{Name: "idle", Phases: []Phase{
		{Ops: 1000, Clients: []Client{
			{Lane: 0, Pattern: Pattern{Kind: KindStride}},
			{Lane: 1, Pattern: Pattern{Kind: KindStride}},
		}},
		{Ops: 1000, Clients: []Client{
			{Lane: 0, Pattern: Pattern{Kind: KindRandom}},
		}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	src := s.Source(1, 3)
	var mem int
	for i := 0; i < 10000; i++ {
		if op := src.Next(); op.Kind != cpu.Nop {
			mem++
		}
	}
	if mem == 0 {
		t.Fatal("lane 1 never issued memory ops despite being active in phase 0")
	}
}

func TestParseJSON(t *testing.T) {
	data := []byte(`{
		"name": "j.simple",
		"phases": [{"clients": [
			{"lane": 0, "pattern": {"kind": "stride", "strides": [{"bytes": 64}]}}
		]}]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "j.simple" || len(s.Phases) != 1 {
		t.Fatalf("unexpected parse result: %+v", s)
	}
	// Typos must surface as errors, not silent defaults.
	bad := []byte(`{"name": "j", "phases": [{"clients": [
		{"pattern": {"kind": "stride", "footprintkb": 64}}
	]}]}`)
	if _, err := Parse(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown field: got %v, want ErrInvalid", err)
	}
}

func TestString(t *testing.T) {
	got := twoPhase().String()
	for _, want := range []string{"svc.mixed", "2 phase(s)", "2 lane(s)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}

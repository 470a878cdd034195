package fdpsim

import (
	"errors"
	"reflect"
	"testing"
)

// The thin constructors are documented as equivalent to options-API calls;
// these round-trips pin that equivalence.
func TestNewConfigMatchesConstructors(t *testing.T) {
	cases := []struct {
		name string
		via  func() (Config, error)
		want Config
	}{
		{"default", func() (Config, error) { return NewConfig(PrefNone) }, Default()},
		{"conventional", func() (Config, error) {
			return NewConfig(PrefStream, WithFixedAggressiveness(5))
		}, Conventional(PrefStream, 5)},
		{"fdp", func() (Config, error) { return NewConfig(PrefGHB) }, WithFDP(PrefGHB)},
	}
	for _, tc := range cases {
		got, err := tc.via()
		if err != nil {
			t.Errorf("%s: NewConfig: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: NewConfig result diverges from constructor:\ngot  %+v\nwant %+v",
				tc.name, got, tc.want)
		}
	}
}

func TestNewConfigAppliesOptions(t *testing.T) {
	cfg, err := NewConfig(PrefStream,
		WithWorkload("chaserand"),
		WithInsts(123_456),
		WithWarmup(10_000),
		WithSeed(7),
		WithTInterval(512),
		WithInsertion(PosMID),
		WithFDPHistory(),
		WithMaxCycles(9_999_999),
		WithPrefetchCache(512, 8),
		WithPerStreamRamp(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload != "chaserand" || cfg.MaxInsts != 123_456 || cfg.WarmupInsts != 10_000 ||
		cfg.Seed != 7 || cfg.FDP.TInterval != 512 {
		t.Errorf("scalar options not applied: %+v", cfg)
	}
	if cfg.FDP.DynamicInsertion || cfg.FDP.StaticInsertion != PosMID {
		t.Errorf("WithInsertion: DynamicInsertion=%v StaticInsertion=%v",
			cfg.FDP.DynamicInsertion, cfg.FDP.StaticInsertion)
	}
	if !cfg.KeepFDPHistory || cfg.MaxCycles != 9_999_999 ||
		cfg.PrefCacheBlocks != 512 || cfg.PrefCacheWays != 8 || !cfg.PerStreamRamp {
		t.Errorf("flag options not applied: %+v", cfg)
	}
}

func TestNewConfigErrors(t *testing.T) {
	if _, err := NewConfig(PrefStream, WithWorkload("nope")); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: err = %v, want ErrUnknownWorkload", err)
	}
	// PrefCustom without WithCustomPrefetcher is an invalid configuration.
	if _, err := NewConfig(PrefCustom); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("custom kind without instance: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewConfig(PrefStream, WithFixedAggressiveness(9)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("out-of-range level: err = %v, want ErrInvalidConfig", err)
	}
	// Wrapper semantics: the partially-built config still comes back.
	cfg, err := NewConfig(PrefStream, WithFixedAggressiveness(7))
	if err == nil || cfg.StaticLevel != 7 {
		t.Errorf("partial config: level=%d err=%v", cfg.StaticLevel, err)
	}
}

func TestWithTracerRoundTrip(t *testing.T) {
	called := false
	cfg, err := NewConfig(PrefStream, WithTracer(TracerFunc(func(DecisionEvent) { called = true })))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tracer == nil {
		t.Fatal("WithTracer did not install the sink")
	}
	cfg.Tracer.TraceDecision(DecisionEvent{})
	if !called {
		t.Error("installed sink is not the supplied function")
	}
}

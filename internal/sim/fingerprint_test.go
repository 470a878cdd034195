package sim

import (
	"errors"
	"testing"

	"fdpsim/internal/prefetch"
)

func TestFingerprintStableAndSemantic(t *testing.T) {
	a := WithFDP(PrefStream)
	b := WithFDP(PrefStream)
	fa, ok := Fingerprint(a)
	if !ok || fa == "" {
		t.Fatalf("Fingerprint(a) = %q, %v", fa, ok)
	}
	fb, _ := Fingerprint(b)
	if fa != fb {
		t.Fatalf("identical configs fingerprint differently: %s vs %s", fa, fb)
	}

	// Result-irrelevant fields must not change the fingerprint.
	b.Tracer = TracerFunc(func(DecisionEvent) {})
	if fb2, _ := Fingerprint(b); fb2 != fa {
		t.Fatalf("Tracer changed the fingerprint")
	}

	// Semantic fields must.
	b.MaxInsts++
	if fb3, _ := Fingerprint(b); fb3 == fa {
		t.Fatalf("MaxInsts change did not change the fingerprint")
	}
}

func TestFingerprintRejectsCustom(t *testing.T) {
	cfg := Default()
	cfg.Prefetcher = PrefCustom
	cfg.Custom = prefetch.NewStream(4)
	if fp, ok := Fingerprint(cfg); ok {
		t.Fatalf("custom prefetcher fingerprinted as %q", fp)
	}
}

func TestValidateJob(t *testing.T) {
	cfg := WithFDP(PrefStream)
	if err := cfg.ValidateJob(); err != nil {
		t.Fatalf("valid job config rejected: %v", err)
	}

	bad := cfg
	bad.Workload = "no-such-workload"
	if err := bad.ValidateJob(); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload: got %v, want ErrUnknownWorkload", err)
	}
	// Plain Validate accepts it (workloads resolve at run time)…
	if err := bad.Validate(); err != nil {
		t.Fatalf("Validate should not check workload names: %v", err)
	}

	cust := Default()
	cust.Prefetcher = PrefCustom
	cust.Custom = prefetch.NewStream(4)
	if err := cust.ValidateJob(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("custom prefetcher job: got %v, want ErrInvalidConfig", err)
	}
}

func TestPrefetcherKindsValidate(t *testing.T) {
	for _, k := range PrefetcherKinds() {
		cfg := Default()
		cfg.Prefetcher = k
		if k != PrefNone {
			cfg.StaticLevel = 3
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("kind %q rejected by Validate: %v", k, err)
		}
	}
}

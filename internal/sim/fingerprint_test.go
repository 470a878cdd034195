package sim

import (
	"context"
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

// TestValidateJob covers Job.Validate for named-workload runs; spec runs
// are TestValidateSpecJob's.
func TestValidateJob(t *testing.T) {
	named := WithFDP(PrefStream)
	unknown := named
	unknown.Workload = "no-such-workload"
	cust := Default()
	cust.Prefetcher = PrefCustom
	cust.Custom = prefetch.NewStream(4)
	atCap := named
	atCap.L2Blocks = maxJobBlocks
	overCap := named
	overCap.L2Blocks = 2 * maxJobBlocks
	hugeROB := named
	hugeROB.CPU.ROB = 1 << 40

	cases := []jobValidateCase{
		{"named", Job{Cfg: named}, nil},
		{"unknown workload", Job{Cfg: unknown}, ErrUnknownWorkload},
		{"custom prefetcher", Job{Cfg: cust}, ErrInvalidConfig},
		{"at the size cap", Job{Cfg: atCap}, nil},
		{"over the size cap", Job{Cfg: overCap}, ErrInvalidConfig},
		{"ROB over the size cap", Job{Cfg: hugeROB}, ErrInvalidConfig},
	}
	checkJobValidate(t, cases)
	// Plain Validate accepts an unknown name (workloads resolve at run
	// time) and applies no size cap: only queued jobs are capped.
	for _, cfg := range []Config{unknown, overCap} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Config.Validate rejected a direct-run config: %v", err)
		}
	}
}

type jobValidateCase struct {
	name string
	job  Job
	want error // nil: valid
}

func checkJobValidate(t *testing.T, cases []jobValidateCase) {
	t.Helper()
	for _, tc := range cases {
		err := tc.job.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: valid job rejected: %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestJobFingerprint pins Job's key to the two functions it chooses
// between, so stores written before Job existed stay warm.
func TestJobFingerprint(t *testing.T) {
	cfg := specTestConfig()
	sp := oneLaneSpec()
	want, _ := Fingerprint(cfg)
	if got, ok := (Job{Cfg: cfg}).Fingerprint(); !ok || got != want {
		t.Fatalf("named Job fingerprint = %q, %v; want Fingerprint's %q", got, ok, want)
	}
	want, _ = FingerprintSpec(cfg, sp)
	if got, ok := (Job{Cfg: cfg, Spec: sp}).Fingerprint(); !ok || got != want {
		t.Fatalf("spec Job fingerprint = %q, %v; want FingerprintSpec's %q", got, ok, want)
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

// TestJobWorkload pins the run's label to the name its Result reports:
// the spec's name for a spec run, whatever Cfg.Workload says.
func TestJobWorkload(t *testing.T) {
	cfg := specTestConfig()
	cfg.MaxInsts = 5000
	relabelled := cfg
	relabelled.Workload = "chaserand"
	sp := oneLaneSpec()
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"named", Job{Cfg: cfg}, cfg.Workload},
		{"spec", Job{Cfg: cfg, Spec: sp}, sp.Name},
		{"spec over a named config", Job{Cfg: relabelled, Spec: sp}, sp.Name},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.job.Workload(); got != tc.want {
				t.Fatalf("Workload() = %q, want %q", got, tc.want)
			}
			res, err := tc.job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Workload != tc.want {
				t.Fatalf("Result.Workload = %q, want %q", res.Workload, tc.want)
			}
		})
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fdpsim/internal/sim"
)

// FuzzJobRequest drives arbitrary bytes through the POST /v1/jobs
// decode path — strict JSON, BuildConfig, Job.Validate, Job.Fingerprint
// — which must never panic. A request that validates must fingerprint,
// the same way twice, and one without a spec must also build its
// topology and run to its first retired instruction under a small cycle
// budget without panicking: a panic there would kill a service worker,
// and with it the daemon.
func FuzzJobRequest(f *testing.F) {
	cfg := fastConfig(20_000, 1)
	full, err := json.Marshal(JobRequest{Config: &cfg, Trace: true})
	if err != nil {
		f.Fatal(err)
	}
	specReq, err := json.Marshal(JobRequest{Config: &cfg, Spec: serviceSpec("fuzz.spec")})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{}`,
		`{"workload":"chaserand","prefetcher":"ghb","fdp":true,"controller":"dspatch-dual","insts":5000}`,
		`{"workload":"seqstream","level":3,"dynamic_insertion":true,"tinterval":64}`,
		`{"config":{"L2Blocks":1000,"MaxInsts":10}}`,
		`{"prefetcher":"warp-drive"}`,
		string(full),
		string(specReq),
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		run := sim.Job{Cfg: req.BuildConfig(), Spec: req.Spec}
		if run.Validate() != nil {
			return
		}
		fp, ok := run.Fingerprint()
		fp2, ok2 := run.Fingerprint()
		if !ok || !ok2 || fp != fp2 {
			t.Fatalf("valid request fingerprints %q, %v then %q, %v", fp, ok, fp2, ok2)
		}
		if run.Spec != nil {
			return
		}
		run.Cfg.MaxInsts, run.Cfg.WarmupInsts, run.Cfg.MaxCycles = 1, 0, 50_000
		run.Run(context.Background()) //nolint:errcheck // only a panic fails
	})
}

package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// TestFleetTwoWorkers is the fleet acceptance smoke: two in-process
// servers share one content-addressed store as fleet workers, every
// configuration is submitted to both, and claim coordination ensures
// each fingerprint is simulated exactly once fleet-wide. One fingerprint
// is pre-claimed by a "ghost" — a worker that died mid-job — whose lease
// the live fleet must wait out and steal.
func TestFleetTwoWorkers(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(st *store.Store, name string) *Server {
		srv := New(Config{
			Workers: 2, QueueDepth: 64, Store: st,
			FleetWorker: name, LeaseTTL: time.Second,
		})
		t.Cleanup(func() {
			ctx, cancel := testContext(30 * time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck
		})
		return srv
	}
	srvA := mk(stA, "worker-a")
	srvB := mk(stB, "worker-b")

	const n = 12
	configs := make([]sim.Config, n)
	for i := range configs {
		configs[i] = fastConfig(20_000, uint64(1000+i))
	}

	// Injected worker kill: a ghost claimed configs[0] and died without
	// releasing. Its unexpired lease must be waited out, then stolen.
	fp0, ok := sim.Fingerprint(configs[0])
	if !ok {
		t.Fatal("config 0 not fingerprintable")
	}
	if state, _, err := stA.Claim(fp0, "ghost", 400*time.Millisecond, ""); err != nil || state != store.ClaimAcquired {
		t.Fatalf("seeding ghost claim: %v, %v", state, err)
	}

	// Every configuration goes to both servers, interleaved, so nearly
	// every fingerprint is contended across the fleet.
	var jobs []*Job
	for i, cfg := range configs {
		first, second := srvA, srvB
		if i%2 == 1 {
			first, second = srvB, srvA
		}
		j1, err := first.Submit(sim.Job{Cfg: cfg})
		if err != nil {
			t.Fatalf("submit %d to first: %v", i, err)
		}
		j2, err := second.Submit(sim.Job{Cfg: cfg})
		if err != nil {
			t.Fatalf("submit %d to second: %v", i, err)
		}
		jobs = append(jobs, j1, j2)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never finished", j.ID())
		}
		st := j.Status()
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("job %s = %s (%s)", st.ID, st.State, st.Error)
		}
	}

	// Exactly-once execution fleet-wide: the two servers' execution
	// counters sum to the number of distinct fingerprints, even though
	// every fingerprint was submitted twice.
	execA, execB := srvA.Executions(), srvB.Executions()
	if execA+execB != n {
		t.Fatalf("fleet executed %d simulations (A=%d, B=%d) for %d distinct configs, want exactly %d",
			execA+execB, execA, execB, n, n)
	}
	if execA == 0 || execB == 0 {
		t.Logf("note: one-sided execution split (A=%d, B=%d); coordination still exact", execA, execB)
	}

	// The ghost's claim was recovered by a lease-steal, not abandoned.
	if stolen := srvA.m.claimsStolen.Load() + srvB.m.claimsStolen.Load(); stolen < 1 {
		t.Fatal("ghost claim was never stolen")
	}

	// Every result is durable in the shared store and consistent across
	// both handles.
	for i, cfg := range configs {
		fp, _ := sim.Fingerprint(cfg)
		ra, okA := stA.Get(fp)
		rb, okB := stB.Get(fp)
		if !okA || !okB {
			t.Fatalf("config %d missing from shared store (A=%v, B=%v)", i, okA, okB)
		}
		if ra.IPC != rb.IPC || ra.IPC <= 0 {
			t.Fatalf("config %d store mismatch: %v vs %v", i, ra.IPC, rb.IPC)
		}
	}

	// No claim files should be left behind once every job released.
	for _, cfg := range configs {
		fp, _ := sim.Fingerprint(cfg)
		if state, info, err := stA.Claim(fp, "probe", time.Minute, ""); err != nil || state != store.ClaimDone {
			t.Fatalf("post-run claim for %s = %v (%+v), %v, want done", shortFP(fp), state, info, err)
		}
	}
}

// TestFleetAdoptionKeepsEntry: a worker waiting on another worker's claim
// adopts the result that worker stored by reading it, not by writing it
// back — the store entry it found is the one left on disk.
func TestFleetAdoptionKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Store: st, FleetWorker: "worker-a", LeaseTTL: time.Second})
	t.Cleanup(func() {
		ctx, cancel := testContext(30 * time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})

	cfg := fastConfig(20_000, 4343)
	fp, ok := sim.Fingerprint(cfg)
	if !ok {
		t.Fatal("config not fingerprintable")
	}
	// A live executor elsewhere in the fleet: its long lease keeps this
	// worker waiting on the claim until the result appears.
	if state, _, err := st.Claim(fp, "ghost", time.Minute, ""); err != nil || state != store.ClaimAcquired {
		t.Fatalf("seeding ghost claim: %v, %v", state, err)
	}
	job, err := srv.Submit(sim.Job{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// The other executor finishes and stores its result.
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, fp[:2], fp+".json")
	before, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job never finished")
	}
	js := job.Status()
	if js.State != StateDone || !js.CacheHit || js.Result == nil || js.Result.Counters != res.Counters {
		t.Fatalf("job = %s, cache_hit %v, result %+v; want the adopted result", js.State, js.CacheHit, js.Result)
	}
	if n := srv.Executions(); n != 0 {
		t.Fatalf("worker executed %d simulations; want it to adopt", n)
	}
	after, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("adoption rewrote the store entry another worker had written")
	}
}

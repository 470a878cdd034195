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
	if acquired, _, err := stA.Claim(fp0, "ghost", 400*time.Millisecond, ""); err != nil || !acquired {
		t.Fatalf("seeding ghost claim: %v, %v", acquired, err)
	}

	// Every configuration goes to both servers, interleaved, so nearly
	// every fingerprint is contended across the fleet.
	var jobs []*Job
	for i, cfg := range configs {
		first, second := srvA, srvB
		if i%2 == 1 {
			first, second = srvB, srvA
		}
		j1, err := first.Submit(sim.Job{Cfg: cfg}, Submission{})
		if err != nil {
			t.Fatalf("submit %d to first: %v", i, err)
		}
		j2, err := second.Submit(sim.Job{Cfg: cfg}, Submission{})
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
	if left, _ := filepath.Glob(filepath.Join(dir, "*", "*.claim*")); len(left) != 0 {
		t.Fatalf("claim files left after every job released: %v", left)
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
	if acquired, _, err := st.Claim(fp, "ghost", time.Minute, ""); err != nil || !acquired {
		t.Fatalf("seeding ghost claim: %v, %v", acquired, err)
	}
	job, err := srv.Submit(sim.Job{Cfg: cfg}, Submission{})
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

// runsOnceAcrossFleet submits run to two fleet workers sharing the store
// at dir and waits for both jobs: each must end done, with a series when
// sub asks for one, and the fleet must have simulated exactly once, under
// a lease.
func runsOnceAcrossFleet(t *testing.T, dir string, run sim.Job, sub Submission) {
	t.Helper()
	var srvs [2]*Server
	var jobs [2]*Job
	for i, name := range []string{"worker-a", "worker-b"} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], _ = newTestServer(t, Config{Workers: 1, Store: st, FleetWorker: name, LeaseTTL: time.Second})
	}
	for i, srv := range srvs {
		j, err := srv.Submit(run, sub)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		st := waitJob(t, j)
		if _, ok := j.SeriesData(); st.State != StateDone || st.Result == nil || ok != j.wantSeries {
			t.Fatalf("job %s = %s (%s), series %v; want done with the series asked for", st.ID, st.State, st.Error, ok)
		}
	}
	a, b := srvs[0].Executions(), srvs[1].Executions()
	leases := srvs[0].m.claimsAcquired.Load() + srvs[1].m.claimsAcquired.Load()
	if a+b != 1 || leases != 1 {
		t.Fatalf("fleet simulated one fingerprint %d times (A=%d B=%d) under %d leases, want once under 1", a+b, a, b, leases)
	}
}

// TestFleetSkewedResultRunsOnce: a Result file whose header names another
// version is a miss, not an answer, so one worker runs the job under a
// lease and the other adopts what it stored.
func TestFleetSkewedResultRunsOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(200_000, 5151)
	fp, _ := sim.Fingerprint(cfg)
	entry := filepath.Join(dir, fp[:2], fp+".json")
	if err := os.MkdirAll(filepath.Dir(entry), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, []byte("{\"version\":99,\"checksum\":\"00\"}\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	runsOnceAcrossFleet(t, dir, sim.Job{Cfg: cfg}, Submission{})
}

// TestFleetBareEntrySidecarRunsOnce: a Result stored without the series
// both jobs ask for answers neither, so one worker runs the job under a
// lease and the other adopts its Result and series.
func TestFleetBareEntrySidecarRunsOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(200_000, 5252)
	fp, _ := sim.Fingerprint(cfg)
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	runsOnceAcrossFleet(t, dir, sim.Job{Cfg: cfg}, Submission{Series: true})
}

// TestFleetAdoptionNamesExecutorTrace: a worker that waited on a live
// holder and then adopted the stored result names the holder's trace on
// its claim span, linking the submission to the execution elsewhere.
func TestFleetAdoptionNamesExecutorTrace(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{Workers: 1, Store: st, FleetWorker: "worker-a", LeaseTTL: time.Second})
	cfg := fastConfig(20_000, 5353)
	fp, _ := sim.Fingerprint(cfg)
	if acquired, _, err := st.Claim(fp, "ghost", time.Minute, "ghost-trace"); err != nil || !acquired {
		t.Fatalf("seeding ghost claim: %v, %v", acquired, err)
	}
	job, err := srv.Submit(sim.Job{Cfg: cfg}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	// The holder stores its result only once the worker waits on it.
	for deadline := time.Now().Add(30 * time.Second); srv.m.claimsWaited.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never waited on the ghost's claim")
		}
	}
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	var claim map[string]string
	for _, sp := range job.Spans() {
		if sp.Name == "claim" {
			claim = sp.Attrs
		}
	}
	if claim["outcome"] != "adopted" || claim["executor_trace"] != "ghost-trace" {
		t.Fatalf("claim span attrs = %v; want an adoption naming executor_trace ghost-trace", claim)
	}
}

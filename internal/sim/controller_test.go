package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fdpsim/internal/control"
)

func ctrlBase(workload, controller string) Config {
	cfg := WithFDP(PrefStream)
	cfg.Workload = workload
	cfg.MaxInsts = 20_000
	cfg.WarmupInsts = 5_000
	cfg.L1Blocks, cfg.L1Ways = 256, 4
	cfg.L1IBlocks, cfg.L1IWays = 256, 4
	cfg.L2Blocks, cfg.L2Ways = 1024, 16
	cfg.MSHRs = 32
	cfg.PrefQueueCap = 32
	cfg.FDP.TInterval = 64
	cfg.Controller = controller
	return cfg
}

// TestControllerFDPIdentity pins the seam end to end at the sim level:
// selecting "fdp" explicitly produces the same Result as the default
// empty controller, field for field (modulo wall clock and the
// Controller echo itself).
func TestControllerFDPIdentity(t *testing.T) {
	for _, wl := range []string{"seqstream", "mixedphase", "chaserand"} {
		def, err := RunContext(context.Background(), ctrlBase(wl, ""))
		if err != nil {
			t.Fatal(err)
		}
		fdp, err := RunContext(context.Background(), ctrlBase(wl, "fdp"))
		if err != nil {
			t.Fatal(err)
		}
		def.Elapsed, fdp.Elapsed = 0, 0
		def.Controller, fdp.Controller = "", ""
		if fmt.Sprintf("%+v", def) != fmt.Sprintf("%+v", fdp) {
			t.Errorf("%s: -controller fdp diverged from the default policy", wl)
		}
	}
}

// TestControllerRuns exercises every registered controller through a
// full simulation and checks basic invariants.
func TestControllerRuns(t *testing.T) {
	for _, info := range control.List() {
		cfg := ctrlBase("chaserand", info.Name)
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if res.Controller != info.Name {
			t.Errorf("%s: Result.Controller = %q", info.Name, res.Controller)
		}
		if res.IPC <= 0 {
			t.Errorf("%s: IPC = %v", info.Name, res.IPC)
		}
		if res.FinalLevel < 1 || res.FinalLevel > 5 {
			t.Errorf("%s: FinalLevel = %d", info.Name, res.FinalLevel)
		}
	}
}

// TestControllerStaticPins checks that static-N holds the prefetcher at
// level N for the entire run.
func TestControllerStaticPins(t *testing.T) {
	for level := 1; level <= 5; level++ {
		cfg := ctrlBase("chaserand", fmt.Sprintf("static-%d", level))
		cfg.KeepFDPHistory = true
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Intervals == 0 {
			t.Fatalf("static-%d: no intervals closed", level)
		}
		for _, ev := range res.History {
			if ev.DCCAfter != level {
				t.Fatalf("static-%d: interval at level %d", level, ev.DCCAfter)
			}
		}
		if res.FinalLevel != level {
			t.Errorf("static-%d: FinalLevel = %d", level, res.FinalLevel)
		}
	}
}

// TestControllerSignalsFilled checks the sim layer's bandwidth
// enrichment reaches the decision records (chaserand is the small-cache
// workload that reliably closes sampling intervals at this run length).
func TestControllerSignalsFilled(t *testing.T) {
	cfg := ctrlBase("chaserand", "")
	cfg.KeepFDPHistory = true
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, ev := range res.History {
		if ev.BusUtil < 0 || ev.BusUtil > 1 {
			t.Fatalf("BusUtil %v out of [0,1]", ev.BusUtil)
		}
		if ev.BusUtil > 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("no interval observed nonzero bus utilization on a streaming workload")
	}
}

func TestControllerValidate(t *testing.T) {
	cfg := ctrlBase("seqstream", "nope")
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown controller: %v, want ErrInvalidConfig", err)
	}
	cfg = ctrlBase("seqstream", "fdp")
	cfg.ControllerModel = []byte(`{}`)
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("model without tree controller: %v, want ErrInvalidConfig", err)
	}
	cfg = ctrlBase("seqstream", "tree")
	cfg.ControllerModel = []byte(`{"version":1}`)
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("malformed model: %v, want ErrInvalidConfig", err)
	}
	// Controller choice domain-separates fingerprints.
	a, ok := Fingerprint(ctrlBase("seqstream", ""))
	if !ok {
		t.Fatal("not fingerprintable")
	}
	b, _ := Fingerprint(ctrlBase("seqstream", "tree"))
	c, _ := Fingerprint(ctrlBase("seqstream", "dspatch-dual"))
	if a == b || a == c || b == c {
		t.Error("controller choice does not separate fingerprints")
	}
}

package main

import (
	"errors"
	"fmt"
	"testing"

	"fdpsim"
	"fdpsim/internal/cli"
	"fdpsim/internal/service"
	"fdpsim/internal/sim"
	"fdpsim/internal/sweep"
)

// TestBuildConfigMatchesJobAPI walks the flags the CLI shares with a
// POST /v1/jobs body. For every flag set, the CLI's configuration must
// have the fingerprint of the equivalent job body's, or both must be
// rejected. -level stays ignored with -fdp or -prefetcher none, so the
// equivalent body carries it only for a conventional prefetcher.
func TestBuildConfigMatchesJobAPI(t *testing.T) {
	n := 0
	for _, wl := range []string{"chaserand", "seqstream", "bogus"} {
		for _, pref := range []string{"none", "stream", "ghb", "stride", "nextline", "dahlgren", "hybrid", "bogus"} {
			for _, level := range []int{5, 3, 9} { // 5 is the flag's default
				for _, fdp := range []bool{false, true} {
					for _, dynIns := range []bool{false, true} {
						for _, ctrl := range []string{"", "fdp", "tree", "nope"} {
							f := configFlags{workload: wl, insts: 50_000, seed: 7, prefetcher: pref,
								level: level, fdp: fdp, dynIns: dynIns, controller: ctrl, insert: "MRU"}
							req := service.JobRequest{Workload: wl, Insts: f.insts, Seed: f.seed,
								Prefetcher: pref, FDP: fdp, DynamicInsertion: dynIns, Controller: ctrl}
							if !fdp && pref != "none" {
								req.Level = level
							}
							name := fmt.Sprintf("%+v", f)
							cfg, cliErr := buildConfig(f)
							job := sim.Job{Cfg: req.BuildConfig()}
							jobErr := job.Validate()
							switch {
							case (cliErr == nil) != (jobErr == nil):
								t.Errorf("%s: CLI err %v, job err %v", name, cliErr, jobErr)
							case cliErr != nil:
								if code := cli.ExitCode(cliErr); code != cli.ExitUsage {
									t.Errorf("%s: exit code %d for %v, want %d", name, code, cliErr, cli.ExitUsage)
								}
							default:
								got, _ := fdpsim.Fingerprint(cfg)
								want, _ := job.Fingerprint()
								if got != want {
									t.Errorf("%s: CLI fingerprint %s, job API %s", name, got, want)
								}
								n++
							}
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no flag set built a configuration")
	}
}

// TestBuildConfigRejects pins the flag sets the CLI refuses with exit code
// 2: a controller without -fdp (the job API's 400), a -level outside 1..5
// for a conventional prefetcher, and an unknown workload, which is
// checked before anything else.
func TestBuildConfigRejects(t *testing.T) {
	base := configFlags{workload: "seqstream", prefetcher: "stream", level: 5, insts: 1000, seed: 1, insert: "MRU"}
	cases := []struct {
		name string
		edit func(*configFlags)
		want error
	}{
		{"controller without fdp", func(f *configFlags) { f.controller = "tree" }, sweep.ErrInvalid},
		{"fdp controller without fdp", func(f *configFlags) { f.controller = "fdp" }, sweep.ErrInvalid},
		{"model without fdp", func(f *configFlags) { f.controllerModel = "missing.json" }, sweep.ErrInvalid},
		{"model beside another controller", func(f *configFlags) {
			f.fdp, f.controller, f.controllerModel = true, "fdp", "missing.json"
		}, fdpsim.ErrInvalidConfig},
		{"level 0", func(f *configFlags) { f.level = 0 }, fdpsim.ErrInvalidConfig},
		{"level 6", func(f *configFlags) { f.level = 6 }, fdpsim.ErrInvalidConfig},
		{"bad insert", func(f *configFlags) { f.insert = "TOP" }, fdpsim.ErrInvalidConfig},
		{"unknown workload first", func(f *configFlags) {
			f.workload, f.prefetcher, f.level = "bogus", "bogus", 0
		}, fdpsim.ErrUnknownWorkload},
	}
	for _, tc := range cases {
		f := base
		tc.edit(&f)
		_, err := buildConfig(f)
		if !errors.Is(err, tc.want) || cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("%s: err = %v, want %v (exit code %d)", tc.name, err, tc.want, cli.ExitUsage)
		}
	}

	// -level is ignored with -fdp or -prefetcher none, and -insert with
	// -fdp; -dynins keeps its say beside a static -insert.
	for _, edit := range []func(*configFlags){
		func(f *configFlags) { f.level, f.fdp = 0, true },
		func(f *configFlags) { f.level, f.prefetcher = 9, "none" },
		func(f *configFlags) { f.insert, f.fdp = "TOP", true },
	} {
		f := base
		edit(&f)
		if _, err := buildConfig(f); err != nil {
			t.Errorf("%+v: %v", f, err)
		}
	}
	f := base
	f.insert, f.dynIns = "MID", true
	cfg, err := buildConfig(f)
	if err != nil || !cfg.FDP.DynamicInsertion || cfg.FDP.StaticInsertion != fdpsim.PosMID || cfg.StaticLevel != 5 {
		t.Errorf("-insert MID -dynins: DynamicInsertion=%v StaticInsertion=%v level=%d err=%v",
			cfg.FDP.DynamicInsertion, cfg.FDP.StaticInsertion, cfg.StaticLevel, err)
	}
}

// Command train_tree fits a decision-tree controller model from one or
// more fdpsim -trace-out JSONL decision traces and writes it as the JSON
// schema internal/control.LoadTree consumes (docs/CONTROLLERS.md).
//
// Usage:
//
//	fdpsim -workload chaserand -fdp -insts 2000000 -trace-out chaserand.jsonl
//	fdpsim -workload scanmod  -fdp -insts 2000000 -trace-out scanmod.jsonl
//	go run ./scripts -out tree.json chaserand.jsonl scanmod.jsonl
//	fdpsim -workload chaserand -fdp -controller tree -controller-model tree.json
//
// By default the tree imitates the traced controller's decisions: each
// event's counter delta (DCCAfter - DCCBefore) and insertion position.
// -features selects which features the tree may split on; -max-depth and
// -min-leaf bound its size. The emitted model always passes LoadTree
// validation. Exit codes: 0 success, 2 bad usage or malformed input, 1
// I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fdpsim/internal/cli"
	"fdpsim/internal/control"
	"fdpsim/internal/core"
	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
)

const tool = "train_tree"

// signalsOf rebuilds the Signals an event's decision was taken on, so
// the trainer encodes features through control.Feature exactly as the
// tree controller evaluates them: level is the counter the decision
// started from, the accuracy class the ordinal the trace names.
func signalsOf(ev sim.DecisionEvent) control.Signals {
	return control.Signals{
		Accuracy: ev.Accuracy, Lateness: ev.Lateness, Pollution: ev.Pollution,
		AccClass: accClass(ev.AccuracyClass), Late: ev.Late, Polluting: ev.Polluting,
		Level: ev.DCCBefore, BusUtilization: ev.BusUtil,
	}
}

// accClass returns the accuracy class a trace names.
func accClass(name string) core.AccuracyClass {
	for c := core.AccLow; c < core.AccHigh; c++ {
		if c.String() == name {
			return c
		}
	}
	return core.AccHigh
}

func main() {
	var (
		out      = flag.String("out", "tree.json", "output model file")
		features = flag.String("features", "accuracy,lateness,pollution,bus_util,level", "comma-separated features the tree may split on")
		maxDepth = flag.Int("max-depth", 6, "maximum tree depth")
		minLeaf  = flag.Int("min-leaf", 8, "minimum samples per leaf")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		cli.Fatalf(tool, cli.ExitUsage, "no input traces (run fdpsim -trace-out first); usage: train_tree [-out tree.json] a.jsonl [b.jsonl ...]")
	}

	feats := strings.Split(*features, ",")
	for i := range feats {
		feats[i] = strings.TrimSpace(feats[i])
		if _, ok := control.Feature(control.Signals{}, feats[i]); !ok {
			cli.Fatalf(tool, cli.ExitUsage, "unknown feature %q (want %s)", feats[i], strings.Join(control.FeatureNames(), ", "))
		}
	}

	var samples []control.Sample
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		cli.FatalIf(tool, err)
		s, err := readSamples(f, feats)
		f.Close()
		if err != nil {
			cli.Fatalf(tool, cli.ExitUsage, "%s: %v", path, err)
		}
		samples = append(samples, s...)
	}
	fmt.Fprintf(os.Stderr, "%s: %d samples from %d file(s)\n", tool, len(samples), flag.NArg())

	model, err := control.FitTree(samples, feats, control.FitOptions{MaxDepth: *maxDepth, MinLeaf: *minLeaf})
	cli.FatalIf(tool, err)

	blob, err := json.MarshalIndent(model, "", "  ")
	cli.FatalIf(tool, err)
	blob = append(blob, '\n')
	cli.FatalIf(tool, os.WriteFile(*out, blob, 0o644))

	// Self-check: the file we just wrote must load.
	if _, err := control.LoadTree(blob, control.Params{}.Thresholds); err != nil {
		cli.Fatalf(tool, cli.ExitError, "emitted model fails validation: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %s (%d nodes, depth<=%d)\n", tool, *out, len(model.Nodes), *maxDepth)
}

// readSamples parses a JSONL decision trace into training samples, one
// per event: the named features, labelled with the decision taken (the
// counter delta and the lower-cased insertion position).
func readSamples(r io.Reader, feats []string) ([]control.Sample, error) {
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	samples := make([]control.Sample, len(events))
	for i, ev := range events {
		s := control.Sample{Features: make([]float64, len(feats)),
			Delta: ev.DCCAfter - ev.DCCBefore, Insertion: strings.ToLower(ev.Insertion)}
		sig := signalsOf(ev)
		for j, name := range feats {
			s.Features[j], _ = control.Feature(sig, name) // main checked every name
		}
		samples[i] = s
	}
	return samples, nil
}

// Package control is the registry of pluggable feedback controllers:
// decision policies that map the per-interval Signals measured by the
// core FDP engine (accuracy, lateness, pollution, bandwidth occupancy)
// to a Decision (next aggressiveness level, prefetch insertion
// position). The paper's Table 2 policy is the default "fdp" controller;
// static baselines, a DSPatch-style dual-mode switcher, and a trained
// decision tree compete against it through the same interface. See
// docs/CONTROLLERS.md for the contract and the model-file schema.
package control

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fdpsim/internal/core"
	"fdpsim/internal/prefetch"
)

// Signals and Decision are the core engine's types, re-exported so
// controller implementations and their callers need only this package.
type (
	Signals  = core.Signals
	Decision = core.Decision
)

// ErrInvalid reports an unknown controller name or a malformed
// decision-tree model file. It matches via errors.Is.
var ErrInvalid = errors.New("control: invalid")

// Controller is a named decision policy. Decide is called synchronously
// at every sampling-interval boundary and must be cheap and
// allocation-free (enforced by TestDecideAllocs); Name feeds result
// labeling and config fingerprints (listings read Info.Description).
type Controller interface {
	core.Decider
	Name() string
}

// Params carries the per-run inputs a controller build may consume: the
// classification thresholds in effect (controllers that reuse the paper
// policy respect them), the Section 5.6 accuracy-only ablation flag, and
// the serialized decision-tree model for the "tree" controller (nil
// selects the embedded default model).
type Params struct {
	Thresholds   core.Thresholds
	AccuracyOnly bool
	Model        []byte
}

// Info describes one registered controller for listings.
type Info struct {
	Name        string
	Tags        []string // "paper", "static", "learned"
	Description string
}

type entry struct {
	info  Info
	build func(p Params) (Controller, error)
}

// The registry is a fixed ordered table: deterministic listings, no
// init-order or mutation concerns. The static baselines sit between the
// paper's policy and its competitors.
var registry = slices.Concat([]entry{
	{
		info: Info{
			Name:        "fdp",
			Tags:        []string{"paper"},
			Description: "Table 2 feedback policy + pollution-directed insertion (the paper; default)",
		},
		build: func(p Params) (Controller, error) {
			return fdpController{th: p.Thresholds, accuracyOnly: p.AccuracyOnly}, nil
		},
	},
}, staticEntries(), []entry{
	{
		info: Info{
			Name:        "dspatch-dual",
			Tags:        []string{"paper"},
			Description: "DSPatch-style dual mode: coverage-biased under bus headroom, accuracy-biased when saturated",
		},
		build: func(p Params) (Controller, error) {
			return dspatchController{th: p.Thresholds, accuracyOnly: p.AccuracyOnly}, nil
		},
	},
	{
		info: Info{
			Name:        "tree",
			Tags:        []string{"learned"},
			Description: "trained decision tree (Puppeteer-style) from a JSON model file",
		},
		build: func(p Params) (Controller, error) {
			model := p.Model
			if len(model) == 0 {
				model = defaultTreeModel
			}
			return LoadTree(model, p.Thresholds)
		},
	},
})

// staticEntries are the static-1..static-5 baselines, one per Table 1
// level.
func staticEntries() []entry {
	var out []entry
	for level := prefetch.MinLevel; level <= prefetch.MaxLevel; level++ {
		out = append(out, entry{
			info: Info{
				Name:        fmt.Sprintf("static-%d", level),
				Tags:        []string{"static"},
				Description: fmt.Sprintf("fixed aggressiveness level %d (%s), paper insertion", level, prefetch.LevelName(level)),
			},
			build: staticBuilder(level),
		})
	}
	return out
}

// List returns every registered controller in registry order.
func List() []Info {
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = e.info
	}
	return out
}

// Names returns the registered controller names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.info.Name
	}
	sort.Strings(out)
	return out
}

// Known reports whether name is a registered controller. The empty
// string is accepted as an alias for the default "fdp" controller.
func Known(name string) bool {
	if name == "" {
		return true
	}
	for _, e := range registry {
		if e.info.Name == name {
			return true
		}
	}
	return false
}

// Build constructs a fresh controller instance by name. The empty string
// builds the default "fdp" controller. Unknown names and malformed model
// files report errors matching ErrInvalid.
func Build(name string, p Params) (Controller, error) {
	if name == "" {
		name = "fdp"
	}
	for _, e := range registry {
		if e.info.Name == name {
			return e.build(p)
		}
	}
	return nil, fmt.Errorf("%w: unknown controller %q (have %v)", ErrInvalid, name, Names())
}

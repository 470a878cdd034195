package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fdpsim/internal/cache"
	"fdpsim/internal/core"
)

func params() Params {
	return Params{Thresholds: core.DefaultThresholds()}
}

// signalsGrid enumerates a broad sweep of Signals values: every
// classification cell crossed with a range of metric values, levels, and
// bus utilizations.
func signalsGrid() []Signals {
	var out []Signals
	var interval uint64
	for _, acc := range []float64{0, 0.2, 0.41, 0.6, 0.76, 1} {
		for _, lat := range []float64{0, 0.005, 0.02, 0.5} {
			for _, pol := range []float64{0, 0.05, 0.09, 0.2, 0.5} {
				for level := core.MinLevel; level <= core.MaxLevel; level++ {
					for _, bus := range []float64{0, 0.3, 0.5, 0.9} {
						th := core.DefaultThresholds()
						var ac core.AccuracyClass
						switch {
						case acc >= th.AHigh:
							ac = core.AccHigh
						case acc >= th.ALow:
							ac = core.AccMedium
						default:
							ac = core.AccLow
						}
						interval++
						out = append(out, Signals{
							Interval:       interval,
							Accuracy:       acc,
							Lateness:       lat,
							Pollution:      pol,
							AccClass:       ac,
							Late:           lat >= th.TLateness,
							Polluting:      pol >= th.TPollution,
							Level:          level,
							Insertion:      cache.PosMID,
							BusUtilization: bus,
						})
					}
				}
			}
		}
	}
	return out
}

// TestFDPControllerEquivalence pins the tentpole's bit-identity claim at
// the unit level: the registry's "fdp" controller and core.PaperDecision
// agree on every cell of the signals grid, for both the full policy and
// the accuracy-only ablation.
func TestFDPControllerEquivalence(t *testing.T) {
	for _, ablation := range []bool{false, true} {
		p := params()
		p.AccuracyOnly = ablation
		c, err := Build("fdp", p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range signalsGrid() {
			got := c.Decide(s)
			want := core.PaperDecision(s, p.Thresholds, ablation)
			if got != want {
				t.Fatalf("ablation=%v signals=%+v: controller=%+v paper=%+v", ablation, s, got, want)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	infos := List()
	want := []string{"fdp", "static-1", "static-2", "static-3", "static-4", "static-5", "dspatch-dual", "tree"}
	if len(infos) != len(want) {
		t.Fatalf("List() returned %d controllers, want %d", len(infos), len(want))
	}
	for i, w := range want {
		if infos[i].Name != w {
			t.Errorf("List()[%d].Name = %q, want %q", i, infos[i].Name, w)
		}
		if len(infos[i].Tags) == 0 || infos[i].Description == "" {
			t.Errorf("%s: missing tags or description", w)
		}
		if !Known(w) {
			t.Errorf("Known(%q) = false", w)
		}
		c, err := Build(w, params())
		if err != nil {
			t.Fatalf("Build(%q): %v", w, err)
		}
		if c.Name() != w {
			t.Errorf("Build(%q).Name() = %q", w, c.Name())
		}
	}
	if !Known("") {
		t.Error("Known(\"\") = false, want true (alias for fdp)")
	}
	if Known("nope") {
		t.Error("Known(\"nope\") = true")
	}
	if c, err := Build("", params()); err != nil || c.Name() != "fdp" {
		t.Errorf("Build(\"\") = %v, %v; want fdp controller", c, err)
	}
	if _, err := Build("nope", params()); !errors.Is(err, ErrInvalid) {
		t.Errorf("Build(\"nope\") error = %v, want ErrInvalid", err)
	}
}

func TestStaticControllers(t *testing.T) {
	for level := 1; level <= 5; level++ {
		c, err := Build(fmt.Sprintf("static-%d", level), params())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range signalsGrid() {
			d := c.Decide(s)
			if d.Level != level {
				t.Fatalf("static-%d decided level %d", level, d.Level)
			}
			th := core.DefaultThresholds()
			if want := core.InsertionFor(s.Pollution, th.PLow, th.PHigh); d.Insertion != want {
				t.Fatalf("static-%d insertion %v, want paper policy %v", level, d.Insertion, want)
			}
		}
	}
}

func TestDSPatchModes(t *testing.T) {
	c, err := Build("dspatch-dual", params())
	if err != nil {
		t.Fatal(err)
	}
	base := Signals{AccClass: core.AccMedium, Level: 3, Accuracy: 0.5}

	s := base
	s.BusUtilization = 0.1
	if d := c.Decide(s); d.Level != 4 {
		t.Errorf("headroom: level %d, want 4 (coverage bias increments)", d.Level)
	}
	s.AccClass = core.AccLow
	if d := c.Decide(s); d.Level != 3 {
		t.Errorf("headroom + low accuracy: level %d, want 3 (hold)", d.Level)
	}

	s = base
	s.BusUtilization = 0.9
	if d := c.Decide(s); d.Level != 2 {
		t.Errorf("saturated: level %d, want 2 (accuracy bias decrements)", d.Level)
	}
	s.AccClass = core.AccHigh
	if d := c.Decide(s); d.Level != 3 {
		t.Errorf("saturated + accurate clean: level %d, want 3 (hold)", d.Level)
	}

	// Middle band defers to the paper policy exactly.
	for _, sig := range signalsGrid() {
		if sig.BusUtilization < headroomUtil || sig.BusUtilization >= saturatedUtil {
			continue
		}
		if got, want := c.Decide(sig), core.PaperDecision(sig, core.DefaultThresholds(), false); got != want {
			t.Fatalf("middle band diverged from paper: %+v vs %+v", got, want)
		}
	}
}

func TestDefaultTreeModelLoads(t *testing.T) {
	c, err := Build("tree", params())
	if err != nil {
		t.Fatalf("embedded default model failed to load: %v", err)
	}
	for _, s := range signalsGrid() {
		d := c.Decide(s)
		if d.Level < core.MinLevel || d.Level > core.MaxLevel {
			t.Fatalf("tree decided out-of-range level %d", d.Level)
		}
	}
}

func TestLoadTreeRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":          `{`,
		"bad version":       `{"version":2,"features":["accuracy"],"nodes":[{"leaf":true}]}`,
		"no nodes":          `{"version":1,"features":["accuracy"],"nodes":[]}`,
		"unknown feature":   `{"version":1,"features":["vibes"],"nodes":[{"leaf":true}]}`,
		"duplicate feature": `{"version":1,"features":["accuracy","accuracy"],"nodes":[{"leaf":true}]}`,
		"feature oob":       `{"version":1,"features":["accuracy"],"nodes":[{"feature":3,"threshold":1,"left":1,"right":1},{"leaf":true}]}`,
		"child oob":         `{"version":1,"features":["accuracy"],"nodes":[{"feature":0,"threshold":1,"left":5,"right":1},{"leaf":true}]}`,
		"negative child":    `{"version":1,"features":["accuracy"],"nodes":[{"feature":0,"threshold":1,"left":-1,"right":1},{"leaf":true}]}`,
		"self cycle":        `{"version":1,"features":["accuracy"],"nodes":[{"feature":0,"threshold":1,"left":0,"right":0}]}`,
		"two cycle":         `{"version":1,"features":["accuracy"],"nodes":[{"feature":0,"threshold":1,"left":1,"right":1},{"feature":0,"threshold":2,"left":0,"right":0}]}`,
		"delta oob":         `{"version":1,"features":["accuracy"],"nodes":[{"leaf":true,"delta":9}]}`,
		"bad insertion":     `{"version":1,"features":["accuracy"],"nodes":[{"leaf":true,"insertion":"front"}]}`,
	}
	for name, model := range cases {
		if _, err := LoadTree([]byte(model), core.DefaultThresholds()); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error = %v, want ErrInvalid", name, err)
		}
	}
}

// TestDecideAllocs enforces the tentpole's hot-path requirement: every
// registered controller's Decide is allocation-free.
func TestDecideAllocs(t *testing.T) {
	grid := signalsGrid()
	for _, info := range List() {
		c, err := Build(info.Name, params())
		if err != nil {
			t.Fatal(err)
		}
		var sink Decision
		avg := testing.AllocsPerRun(200, func() {
			for _, s := range grid[:50] {
				sink = c.Decide(s)
			}
		})
		if avg != 0 {
			t.Errorf("%s: Decide allocates %.1f objects per 50 calls, want 0", info.Name, avg)
		}
		_ = sink
	}
}

// TestFitTreeRoundTrip fits a tree on labeled samples generated by the
// paper policy, checks the emitted model validates and loads, and that
// the fitted controller reproduces the majority behavior it was
// trained on.
func TestFitTreeRoundTrip(t *testing.T) {
	features := []string{"acc_class", "late", "polluting", "pollution"}
	th := core.DefaultThresholds()
	var samples []Sample
	var sigs []Signals
	for _, s := range signalsGrid() {
		d := core.PaperDecision(s, th, false)
		// Label with the unclamped Table 2 update: the clamped delta
		// depends on the level, which is deliberately not a feature here.
		samples = append(samples, Sample{
			Features:  []float64{float64(s.AccClass), b2f(s.Late), b2f(s.Polluting), s.Pollution},
			Delta:     int(core.LookupPolicy(s.AccClass, s.Late, s.Polluting).Update),
			Insertion: strings.ToLower(d.Insertion.String()),
		})
		sigs = append(sigs, s)
	}
	m, err := FitTree(samples, features, FitOptions{MaxDepth: 8, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadTree(blob, th)
	if err != nil {
		t.Fatalf("fitted model does not load: %v", err)
	}
	agree := 0
	for i, s := range sigs {
		d := c.Decide(s)
		if d.Level == core.ClampLevel(s.Level+samples[i].Delta) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(sigs)); frac < 0.9 {
		t.Errorf("fitted tree agrees with its training labels on only %.1f%% of samples", frac*100)
	}
}

func TestFitTreeRejects(t *testing.T) {
	if _, err := FitTree(nil, []string{"accuracy"}, FitOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("no samples: %v, want ErrInvalid", err)
	}
	if _, err := FitTree([]Sample{{Features: []float64{1}}}, []string{"vibes"}, FitOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown feature: %v, want ErrInvalid", err)
	}
	if _, err := FitTree([]Sample{{Features: []float64{1, 2}}}, []string{"accuracy"}, FitOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("arity mismatch: %v, want ErrInvalid", err)
	}
	if _, err := FitTree([]Sample{{Features: []float64{1}, Insertion: "front"}}, []string{"accuracy"}, FitOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad insertion label: %v, want ErrInvalid", err)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

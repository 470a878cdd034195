package control

import (
	"fmt"
	"sort"
)

// Sample is one training example for FitTree: the feature vector of an
// interval (in the caller-declared feature order) and the labeled
// decision taken on it — the aggressiveness delta and insertion policy.
// scripts/train_tree.go builds them from fdpsim -trace-out JSONL; see
// docs/CONTROLLERS.md for the worked train/eval example.
type Sample struct {
	Features  []float64
	Delta     int
	Insertion string // "mid", "lru-4", "lru", "mru", or "paper"
}

// FitOptions bounds the CART fit.
type FitOptions struct {
	MaxDepth  int // default 6
	MinLeaf   int // minimum samples per leaf, default 8
	MaxSplits int // candidate thresholds considered per feature, default 32
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 6
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 8
	}
	if o.MaxSplits <= 0 {
		o.MaxSplits = 32
	}
	return o
}

// label is the joint (delta, insertion) class a leaf predicts.
type label struct {
	delta     int
	insertion string
}

// FitTree fits a CART decision tree (Gini impurity, axis-aligned splits)
// over the joint (delta, insertion) label and returns it as a TreeModel
// ready to serialize or load. features names each column of the sample
// vectors and must be drawn from FeatureNames(). The returned model
// always passes LoadTree's validation (this is tested).
func FitTree(samples []Sample, features []string, opts FitOptions) (*TreeModel, error) {
	opts = opts.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: fit: no samples", ErrInvalid)
	}
	for _, name := range features {
		if _, ok := featureByName(name); !ok {
			return nil, fmt.Errorf("%w: fit: unknown feature %q (have %v)", ErrInvalid, name, FeatureNames())
		}
	}
	for i, s := range samples {
		if len(s.Features) != len(features) {
			return nil, fmt.Errorf("%w: fit: sample %d has %d features, want %d", ErrInvalid, i, len(s.Features), len(features))
		}
		if _, ok := insertionNames[s.Insertion]; !ok {
			return nil, fmt.Errorf("%w: fit: sample %d: unknown insertion %q", ErrInvalid, i, s.Insertion)
		}
		if s.Delta < -4 || s.Delta > 4 {
			return nil, fmt.Errorf("%w: fit: sample %d: delta %d out of range [-4, 4]", ErrInvalid, i, s.Delta)
		}
	}

	m := &TreeModel{Version: 1, Features: features}
	f := fitter{opts: opts, model: m}
	f.grow(samples, 0)
	return m, nil
}

type fitter struct {
	opts  FitOptions
	model *TreeModel
}

// grow appends the subtree for samples to the model and returns its root
// index. Children are appended after their parent, so the emitted model
// is topologically ordered (and therefore trivially acyclic).
func (f *fitter) grow(samples []Sample, depth int) int {
	idx := len(f.model.Nodes)
	maj := majority(samples)
	if depth >= f.opts.MaxDepth || len(samples) < 2*f.opts.MinLeaf || gini(samples) == 0 {
		f.model.Nodes = append(f.model.Nodes, TreeNode{Leaf: true, Delta: maj.delta, Insertion: maj.insertion})
		return idx
	}
	feat, thresh, ok := f.bestSplit(samples)
	if !ok {
		f.model.Nodes = append(f.model.Nodes, TreeNode{Leaf: true, Delta: maj.delta, Insertion: maj.insertion})
		return idx
	}
	var left, right []Sample
	for _, s := range samples {
		if s.Features[feat] < thresh {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	// Reserve the internal node's slot, then fill in the child indices
	// once the recursion has appended them.
	f.model.Nodes = append(f.model.Nodes, TreeNode{Feature: feat, Threshold: thresh})
	l := f.grow(left, depth+1)
	r := f.grow(right, depth+1)
	f.model.Nodes[idx].Left = l
	f.model.Nodes[idx].Right = r
	return idx
}

// bestSplit scans every feature's candidate thresholds for the split
// with the largest Gini impurity decrease that leaves at least MinLeaf
// samples on each side.
func (f *fitter) bestSplit(samples []Sample) (feat int, thresh float64, ok bool) {
	base := gini(samples)
	best := 0.0
	nf := len(samples[0].Features)
	vals := make([]float64, 0, len(samples))
	for fi := 0; fi < nf; fi++ {
		vals = vals[:0]
		for _, s := range samples {
			vals = append(vals, s.Features[fi])
		}
		sort.Float64s(vals)
		// Distinct values only: midpoints between consecutive distinct
		// neighbors are the candidate thresholds, subsampled down to
		// MaxSplits when the feature is high-cardinality.
		uniq := vals[:0]
		for i, v := range vals {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		step := 1
		if len(uniq) > f.opts.MaxSplits {
			step = len(uniq) / f.opts.MaxSplits
		}
		for i := step; i < len(uniq); i += step {
			t := (uniq[i] + uniq[i-1]) / 2
			var left, right []Sample
			for _, s := range samples {
				if s.Features[fi] < t {
					left = append(left, s)
				} else {
					right = append(right, s)
				}
			}
			if len(left) < f.opts.MinLeaf || len(right) < f.opts.MinLeaf {
				continue
			}
			n := float64(len(samples))
			gain := base - float64(len(left))/n*gini(left) - float64(len(right))/n*gini(right)
			if gain > best {
				best, feat, thresh, ok = gain, fi, t, true
			}
		}
	}
	return feat, thresh, ok
}

func gini(samples []Sample) float64 {
	counts := map[label]int{}
	for _, s := range samples {
		counts[label{s.Delta, s.Insertion}]++
	}
	n := float64(len(samples))
	g := 1.0
	for _, c := range counts {
		p := float64(c) / n
		g -= p * p
	}
	return g
}

func majority(samples []Sample) label {
	counts := map[label]int{}
	for _, s := range samples {
		counts[label{s.Delta, s.Insertion}]++
	}
	var best label
	bestN := -1
	for l, c := range counts {
		// Deterministic tie-break on the label itself.
		if c > bestN || (c == bestN && less(l, best)) {
			best, bestN = l, c
		}
	}
	return best
}

func less(a, b label) bool {
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	return a.insertion < b.insertion
}

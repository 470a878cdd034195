package control

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"fdpsim/internal/cache"
	"fdpsim/internal/core"
)

// defaultTreeModel is the checked-in model for the "tree" controller:
// fitted by scripts/train_tree from fdpsim -trace-out decision traces (see
// docs/CONTROLLERS.md for the worked example that regenerates it).
//
//go:embed model_default.json
var defaultTreeModel []byte

// Feature identifiers a tree model may split on. The model file names
// features as strings; they are compiled down to this enum at load time
// so evaluation never touches the name table.
type feature uint8

const (
	fAccuracy feature = iota
	fLateness
	fPollution
	fBusUtil
	fLevel
	fAccClass
	fLate
	fPolluting
	numFeatures
)

var featureNames = [numFeatures]string{
	"accuracy", "lateness", "pollution", "bus_util",
	"level", "acc_class", "late", "polluting",
}

// FeatureNames returns the feature identifiers a model file may use, in
// canonical order.
func FeatureNames() []string {
	out := make([]string, numFeatures)
	copy(out, featureNames[:])
	return out
}

func featureByName(name string) (feature, bool) {
	for i, n := range featureNames {
		if n == name {
			return feature(i), true
		}
	}
	return 0, false
}

// Feature returns the named feature's value from a Signals reading, as
// the tree controller evaluates it, or false for a name FeatureNames does
// not list. The trainer encodes its samples through it.
func Feature(s Signals, name string) (float64, bool) {
	f, ok := featureByName(name)
	if !ok {
		return 0, false
	}
	return extract(s, f), true
}

// extract returns feature f's value from a Signals reading. Booleans map
// to 0/1 and AccuracyClass to its ordinal (Low=0, Medium=1, High=2), so
// every feature is a plain float comparison in the tree.
func extract(s Signals, f feature) float64 {
	switch f {
	case fAccuracy:
		return s.Accuracy
	case fLateness:
		return s.Lateness
	case fPollution:
		return s.Pollution
	case fBusUtil:
		return s.BusUtilization
	case fLevel:
		return float64(s.Level)
	case fAccClass:
		return float64(s.AccClass)
	case fLate:
		if s.Late {
			return 1
		}
		return 0
	default: // fPolluting
		if s.Polluting {
			return 1
		}
		return 0
	}
}

// TreeModel is the on-disk schema of a decision-tree model file
// (docs/CONTROLLERS.md documents it with an example). Nodes form an
// index-linked binary tree rooted at node 0: internal nodes route
// feature < threshold to Left and feature >= threshold to Right; leaves
// carry the decision. LoadTree validates the whole structure — feature
// names, index ranges, acyclicity, leaf payloads — before any Decide
// call can run it.
type TreeModel struct {
	Version  int        `json:"version"`
	Features []string   `json:"features"`
	Nodes    []TreeNode `json:"nodes"`
}

// TreeNode is one node of a TreeModel. Exactly one of the two shapes is
// valid: an internal node (Leaf false) with Feature/Threshold/Left/
// Right, or a leaf (Leaf true) with Delta and Insertion.
type TreeNode struct {
	// Internal nodes.
	Feature   int     `json:"feature,omitempty"`   // index into Features
	Threshold float64 `json:"threshold,omitempty"` // split value
	Left      int     `json:"left,omitempty"`      // node index when feature < threshold
	Right     int     `json:"right,omitempty"`     // node index when feature >= threshold

	// Leaves.
	Leaf      bool   `json:"leaf,omitempty"`
	Delta     int    `json:"delta,omitempty"`     // aggressiveness level change
	Insertion string `json:"insertion,omitempty"` // "mid", "lru-4", "lru", "mru", or "paper"
}

// maxTreeNodes bounds model size: far above any real fitted tree, low
// enough that hostile inputs cannot balloon validation or memory.
const maxTreeNodes = 1 << 15

// compiled node: feature enum resolved, insertion pre-decoded
// (insPaper = use the pollution-directed policy), leaf reason string
// pre-formatted so Decide never allocates.
type treeNode struct {
	feat        feature
	thresh      float64
	left, right int32
	leaf        bool
	delta       int8
	insertion   int8
	pc          core.PolicyCase
}

const insPaper int8 = -1

var insertionNames = map[string]int8{
	"lru":   int8(cache.PosLRU),
	"lru-4": int8(cache.PosLRU4),
	"mid":   int8(cache.PosMID),
	"mru":   int8(cache.PosMRU),
	"paper": insPaper,
	"":      insPaper, // omitted = defer to the paper insertion policy
}

// treeController evaluates a compiled decision tree. The struct is held
// by pointer behind the Controller interface; Decide walks the node
// slice iteratively and allocates nothing.
type treeController struct {
	nodes []treeNode
	th    core.Thresholds
}

// LoadTree parses and validates a tree model file and returns the
// "tree" controller over it. Every malformation — bad JSON, unknown
// version or feature, out-of-range node indices, cyclic references,
// out-of-range leaf deltas, unknown insertion names — is reported as an
// error matching ErrInvalid; LoadTree never panics on hostile input
// (FuzzTreeModel enforces this).
func LoadTree(model []byte, th core.Thresholds) (Controller, error) {
	var m TreeModel
	if err := json.Unmarshal(model, &m); err != nil {
		return nil, fmt.Errorf("%w: tree model: %v", ErrInvalid, err)
	}
	c, err := compileTree(&m, th)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func compileTree(m *TreeModel, th core.Thresholds) (*treeController, error) {
	if m.Version != 1 {
		return nil, fmt.Errorf("%w: tree model: unsupported version %d", ErrInvalid, m.Version)
	}
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("%w: tree model: no nodes", ErrInvalid)
	}
	if len(m.Nodes) > maxTreeNodes {
		return nil, fmt.Errorf("%w: tree model: %d nodes exceeds limit %d", ErrInvalid, len(m.Nodes), maxTreeNodes)
	}
	feats := make([]feature, len(m.Features))
	seen := make(map[string]bool, len(m.Features))
	for i, name := range m.Features {
		f, ok := featureByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: tree model: unknown feature %q (have %v)", ErrInvalid, name, FeatureNames())
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: tree model: duplicate feature %q", ErrInvalid, name)
		}
		seen[name] = true
		feats[i] = f
	}

	nodes := make([]treeNode, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Leaf {
			if n.Delta < -4 || n.Delta > 4 {
				return nil, fmt.Errorf("%w: tree model: node %d: leaf delta %d out of range [-4, 4]", ErrInvalid, i, n.Delta)
			}
			ins, ok := insertionNames[n.Insertion]
			if !ok {
				return nil, fmt.Errorf("%w: tree model: node %d: unknown insertion %q", ErrInvalid, i, n.Insertion)
			}
			nodes[i] = treeNode{
				leaf:      true,
				delta:     int8(n.Delta),
				insertion: ins,
				pc: core.PolicyCase{
					Update: core.CounterUpdate(clampUpdate(n.Delta)),
					Reason: fmt.Sprintf("tree leaf %d: delta %+d, insertion %s", i, n.Delta, insName(ins)),
				},
			}
			continue
		}
		if n.Feature < 0 || n.Feature >= len(feats) {
			return nil, fmt.Errorf("%w: tree model: node %d: feature index %d out of range (model has %d features)", ErrInvalid, i, n.Feature, len(feats))
		}
		if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
			return nil, fmt.Errorf("%w: tree model: node %d: threshold is not finite", ErrInvalid, i)
		}
		if n.Left < 0 || n.Left >= len(m.Nodes) || n.Right < 0 || n.Right >= len(m.Nodes) {
			return nil, fmt.Errorf("%w: tree model: node %d: child index out of range [0, %d)", ErrInvalid, i, len(m.Nodes))
		}
		nodes[i] = treeNode{
			feat:   feats[n.Feature],
			thresh: n.Threshold,
			left:   int32(n.Left),
			right:  int32(n.Right),
		}
	}

	// DFS from the root rejects cyclic references (a node on the current
	// path reached again) so evaluation is guaranteed to terminate.
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make([]uint8, len(nodes))
	var visit func(i int32) error
	visit = func(i int32) error {
		switch color[i] {
		case grey:
			return fmt.Errorf("%w: tree model: cyclic reference through node %d", ErrInvalid, i)
		case black:
			return nil
		}
		color[i] = grey
		if !nodes[i].leaf {
			if err := visit(nodes[i].left); err != nil {
				return err
			}
			if err := visit(nodes[i].right); err != nil {
				return err
			}
		}
		color[i] = black
		return nil
	}
	if err := visit(0); err != nil {
		return nil, err
	}

	return &treeController{nodes: nodes, th: th}, nil
}

func clampUpdate(d int) int {
	if d < -1 {
		return -1
	}
	if d > 1 {
		return 1
	}
	return d
}

func insName(ins int8) string {
	if ins == insPaper {
		return "paper"
	}
	return cache.InsertPos(ins).String()
}

func (c *treeController) Name() string { return "tree" }

func (c *treeController) Decide(s Signals) Decision {
	i := int32(0)
	// Acyclicity was proven at load; the bound is belt and braces.
	for steps := 0; steps <= len(c.nodes); steps++ {
		n := &c.nodes[i]
		if n.leaf {
			ins := cache.InsertPos(n.insertion)
			if n.insertion == insPaper {
				ins = core.InsertionFor(s.Pollution, c.th.PLow, c.th.PHigh)
			}
			return Decision{
				Level:     core.ClampLevel(s.Level + int(n.delta)),
				Insertion: ins,
				Case:      n.pc,
			}
		}
		if extract(s, n.feat) < n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
	// Unreachable: compileTree rejects cycles.
	panic("control: tree evaluation did not terminate")
}

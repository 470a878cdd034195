// Package spec provides declarative, seeded, fully reproducible workload
// specifications: instead of picking one of the hand-coded kernel
// generators by name, a caller (or a JSON/YAML file) describes a workload
// as a sequence of phases, each a mixture of heterogeneous "clients" with
// skewed rates, bursty scheduling and empirical stride/working-set/
// footprint distributions, composed onto one or more multicore/SMT lanes.
//
// Generation is purely a function of (spec, seed): the same pair always
// yields the identical micro-op stream, so spec runs fingerprint, memoize
// and sweep exactly like the built-in kernels, and a recorded trace is
// bit-equivalent to regenerating in memory. See docs/WORKLOADS.md for the
// schema reference and worked examples.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrInvalid is the sentinel wrapped by every spec validation failure;
// callers branch with errors.Is (the CLIs map it to exit code 2).
var ErrInvalid = errors.New("spec: invalid workload spec")

// BlockBytes is the cache-block size shared with the memory hierarchy.
const BlockBytes = 64

// MaxLanes bounds the number of multicore/SMT lanes a spec may target.
const MaxLanes = 64

// Pattern kinds.
const (
	// KindStride draws each access's stride from an empirical weighted
	// distribution over a footprint: unit streams, element strides,
	// descending streams, transpose walks and any mixture thereof.
	KindStride = "stride"
	// KindChase is a dependent pointer chase over a pseudo-random heap:
	// each hop's address comes from hashing the previous one, and the
	// load cannot issue until its producer completes.
	KindChase = "chase"
	// KindRandom touches short independent runs at uniformly random
	// block-aligned positions — enough to train a prefetcher, too short
	// for its prefetches to help.
	KindRandom = "random"
	// KindHotset cycles through a small resident working set with a
	// prefetcher-hostile stride — the reuse that pollution destroys.
	KindHotset = "hotset"
)

// Spec is a declarative workload: phases executed in order (cycling back
// to the first when the last completes), each phase a weighted mixture of
// clients composed onto lanes. The zero value is invalid; construct in Go
// or load from JSON/YAML and call Validate.
type Spec struct {
	// Name identifies the workload (registry key, Result.Workload, trace
	// header). Lowercase letters, digits, '.', '_' and '-' only.
	Name string `json:"name"`
	// About is an optional one-line description shown by -list.
	About string `json:"about,omitempty"`
	// Phases execute in order and wrap around, so a spec describes an
	// unbounded instruction stream no matter the run's retire target.
	Phases []Phase `json:"phases"`
}

// Phase is one program phase: a client mixture active for Ops micro-ops
// per lane before the next phase takes over.
type Phase struct {
	// Name is optional, for documentation and tooling.
	Name string `json:"name,omitempty"`
	// Ops is the phase length in micro-ops per lane. It may be 0 only in
	// a single-phase spec, where it means "for the whole run".
	Ops uint64 `json:"ops,omitempty"`
	// Clients are the access generators active in this phase.
	Clients []Client `json:"clients"`
}

// Client is one heterogeneous traffic source within a phase: a memory
// access pattern scheduled onto a lane at a relative rate, optionally in
// bursts.
type Client struct {
	// Name is optional, for documentation and tooling.
	Name string `json:"name,omitempty"`
	// Lane assigns the client to a hardware lane: core index in a
	// multicore composition, thread index in an SMT one, always 0 for a
	// single-core run. Lanes must be contiguous from 0.
	Lane int `json:"lane,omitempty"`
	// Weight is the client's relative share of its lane's scheduling
	// turns within the phase (skewed rates). Zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// BurstOn is how many accesses the client issues per scheduling turn
	// (burstiness). Zero means 1: a steady interleave.
	BurstOn int `json:"burst_on,omitempty"`
	// BurstOff inserts that many idle micro-ops after each burst — the
	// think time between a bursty client's episodes.
	BurstOff int `json:"burst_off,omitempty"`
	// Pattern is the client's memory access pattern.
	Pattern Pattern `json:"pattern"`
}

// Pattern describes how a client generates addresses.
type Pattern struct {
	// Kind selects the generator: stride, chase, random or hotset.
	Kind string `json:"kind"`
	// FootprintKB is the address range the pattern roams (stride, chase,
	// random). Zero means 65536 (64 MB).
	FootprintKB uint64 `json:"footprint_kb,omitempty"`
	// WorkingSetKB sizes the resident set of a hotset pattern. Zero
	// means 512.
	WorkingSetKB uint64 `json:"working_set_kb,omitempty"`
	// Strides is the empirical stride distribution of a stride pattern:
	// each access's advance is drawn from it by weight. Empty means one
	// unit (64-byte) stride.
	Strides []Stride `json:"strides,omitempty"`
	// Gap inserts that many non-memory micro-ops after every access —
	// the pattern's compute intensity.
	Gap int `json:"gap,omitempty"`
	// GapJitter adds a seeded uniform extra of [0, GapJitter) idle ops
	// per access, de-synchronizing otherwise lock-step clients.
	GapJitter int `json:"gap_jitter,omitempty"`
	// StoreEvery makes every Nth access a store (writeback traffic).
	// Zero means loads only.
	StoreEvery int `json:"store_every,omitempty"`
	// RunBlocks is how many consecutive blocks a chase or random pattern
	// touches per node visit (default 1, maximum 64). The first access
	// of a chase visit is the dependent pointer load; the rest are
	// payload reads of the node.
	RunBlocks int `json:"run_blocks,omitempty"`
}

// Stride is one weighted entry of an empirical stride distribution.
// Negative strides walk downward.
type Stride struct {
	Bytes  int64   `json:"bytes"`
	Weight float64 `json:"weight,omitempty"` // zero means 1
}

// Defaults (applied by normalize; Canonical hashes the normalized form so
// explicit defaults and omitted fields fingerprint identically).
const (
	defaultFootprintKB  = 64 * 1024
	defaultWorkingSetKB = 512
	maxRunBlocks        = 64
	// maxFootprintKB is a client's private address window, 16 GB (see
	// Source): a larger footprint would reach into the next client's.
	maxFootprintKB = 1 << 24
	// maxTurnOps bounds the micro-ops one scheduling turn of a client
	// emits (see turnOps). A lane's generator queue holds one turn, so
	// the bound keeps the queue small and every Next call short.
	maxTurnOps = 1 << 16
	// weightScale converts float weights to fixed point once, at
	// generator construction, so scheduling never does float arithmetic.
	weightScale = 1000
)

// Lanes returns the number of hardware lanes the spec composes onto:
// one more than the highest client lane index.
func (s *Spec) Lanes() int {
	lanes := 1
	for _, ph := range s.Phases {
		for _, c := range ph.Clients {
			if c.Lane+1 > lanes {
				lanes = c.Lane + 1
			}
		}
	}
	return lanes
}

// turnOps returns the most micro-ops one scheduling turn of c emits:
// burst_on accesses, each its run of blocks (one for stride and hotset
// patterns), its gap and its largest jitter, then burst_off idle ops.
// Zero fields take their defaults. Each field must be at most
// maxTurnOps, so the sum cannot overflow.
func (c *Client) turnOps() int {
	p := &c.Pattern
	access := 1
	if p.Kind == KindChase || p.Kind == KindRandom {
		access = max(p.RunBlocks, 1)
	}
	return max(c.BurstOn, 1)*(access+p.Gap+max(p.GapJitter-1, 0)) + c.BurstOff
}

// validName reports whether a spec name is usable as a registry key and
// file name.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the spec's structure; every failure wraps ErrInvalid.
func (s *Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
	if !validName(s.Name) {
		return fail("name %q must be 1-64 chars of [a-z0-9._-]", s.Name)
	}
	if len(s.Phases) == 0 {
		return fail("spec %s has no phases", s.Name)
	}
	laneSeen := make(map[int]bool)
	for pi, ph := range s.Phases {
		if ph.Ops == 0 && len(s.Phases) > 1 {
			return fail("phase %d (%s): ops is required when a spec has multiple phases", pi, ph.Name)
		}
		if len(ph.Clients) == 0 {
			return fail("phase %d (%s) has no clients", pi, ph.Name)
		}
		for ci, c := range ph.Clients {
			where := fmt.Sprintf("phase %d client %d (%s)", pi, ci, c.Name)
			if c.Lane < 0 || c.Lane >= MaxLanes {
				return fail("%s: lane %d out of range 0..%d", where, c.Lane, MaxLanes-1)
			}
			laneSeen[c.Lane] = true
			if c.Weight < 0 {
				return fail("%s: negative weight %g", where, c.Weight)
			}
			if c.BurstOn < 0 || c.BurstOff < 0 {
				return fail("%s: negative burst_on/burst_off", where)
			}
			p := c.Pattern
			switch p.Kind {
			case KindStride, KindChase, KindRandom, KindHotset:
			case "":
				return fail("%s: pattern.kind is required (stride, chase, random or hotset)", where)
			default:
				return fail("%s: unknown pattern kind %q (want stride, chase, random or hotset)", where, p.Kind)
			}
			if p.Gap < 0 || p.GapJitter < 0 || p.StoreEvery < 0 {
				return fail("%s: gap, gap_jitter and store_every must be non-negative", where)
			}
			if p.RunBlocks < 0 || p.RunBlocks > maxRunBlocks {
				return fail("%s: run_blocks %d out of range 0..%d", where, p.RunBlocks, maxRunBlocks)
			}
			if max(c.BurstOn, c.BurstOff, p.Gap, p.GapJitter) > maxTurnOps || c.turnOps() > maxTurnOps {
				return fail("%s: one turn of burst_on, burst_off, gap and gap_jitter emits more than %d ops", where, maxTurnOps)
			}
			if p.FootprintKB > maxFootprintKB || p.WorkingSetKB > maxFootprintKB {
				return fail("%s: footprint_kb and working_set_kb must be at most %d (16 GB)", where, maxFootprintKB)
			}
			if p.Kind == KindStride {
				for si, st := range p.Strides {
					if st.Weight < 0 {
						return fail("%s: stride %d has negative weight", where, si)
					}
					if st.Bytes == 0 {
						return fail("%s: stride %d is zero bytes (the pattern would never advance)", where, si)
					}
				}
			} else if len(p.Strides) > 0 {
				return fail("%s: strides only apply to stride patterns", where)
			}
			if p.Kind != KindHotset && p.WorkingSetKB != 0 {
				return fail("%s: working_set_kb only applies to hotset patterns", where)
			}
			if p.Kind == KindHotset && p.FootprintKB != 0 {
				return fail("%s: hotset patterns size themselves with working_set_kb, not footprint_kb", where)
			}
		}
	}
	// Lanes must be contiguous: a lane no client ever targets would
	// simulate an empty core forever.
	for lane := 0; lane < s.Lanes(); lane++ {
		if !laneSeen[lane] {
			return fail("no client targets lane %d (lanes must be contiguous from 0)", lane)
		}
	}
	return nil
}

// normalize returns a deep copy with every defaulted field made explicit,
// so Canonical — and therefore fingerprints — cannot distinguish a spec
// that spells out a default from one that omits it.
func (s *Spec) normalize() Spec {
	out := Spec{Name: s.Name, About: s.About, Phases: make([]Phase, len(s.Phases))}
	for pi, ph := range s.Phases {
		np := Phase{Name: ph.Name, Ops: ph.Ops, Clients: make([]Client, len(ph.Clients))}
		for ci, c := range ph.Clients {
			if c.Weight == 0 {
				c.Weight = 1
			}
			if c.BurstOn == 0 {
				c.BurstOn = 1
			}
			p := &c.Pattern
			switch p.Kind {
			case KindHotset:
				if p.WorkingSetKB == 0 {
					p.WorkingSetKB = defaultWorkingSetKB
				}
			default:
				if p.FootprintKB == 0 {
					p.FootprintKB = defaultFootprintKB
				}
			}
			if p.Kind == KindStride && len(p.Strides) == 0 {
				p.Strides = []Stride{{Bytes: BlockBytes}}
			}
			for si := range p.Strides {
				if p.Strides[si].Weight == 0 {
					p.Strides[si].Weight = 1
				}
			}
			if (p.Kind == KindChase || p.Kind == KindRandom) && p.RunBlocks == 0 {
				p.RunBlocks = 1
			}
			np.Clients[ci] = c
		}
		out.Phases[pi] = np
	}
	return out
}

// Canonical returns the spec's canonical JSON: the normalized form with
// every default explicit, marshaled with a fixed field order. Two specs
// share canonical bytes exactly when they generate identical streams for
// every seed; fingerprints and the content-addressed store key on it.
func (s *Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.normalize()
	return json.Marshal(&n)
}

// Parse decodes a spec from JSON (first non-space byte '{') or the YAML
// subset (see yaml.go), applies strict field checking so typos surface as
// errors rather than silent defaults, and validates.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var raw []byte
	if len(trimmed) > 0 && trimmed[0] == '{' {
		raw = data
	} else {
		v, err := yamlToValue(data)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		j, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		raw = j
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file; .json parses as JSON, anything else
// (.yaml, .yml) through the YAML-subset path — Parse sniffs either way,
// so the extension only matters for error wording.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// String summarizes the spec for logs and listings.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s: %d phase(s), %d lane(s)", s.Name, len(s.Phases), s.Lanes())
	return b.String()
}

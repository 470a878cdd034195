// Package workload provides the synthetic benchmark programs driving the
// simulator. The paper evaluates 17 memory-intensive SPEC CPU2000
// benchmarks plus the remaining 9 low-potential ones; the SPEC binaries
// and the authors' traces are unavailable, so each benchmark is replaced
// by a deterministic micro-op generator reproducing the archetypal memory
// behaviour the paper's analysis depends on (DESIGN.md Section 7 maps
// every workload to the SPEC behaviour it stands in for): long unit-stride
// streams, many concurrent streams, descending streams, non-unit strides,
// dependent pointer chases over sequential and randomized heaps, indexed
// gathers, sparse matrix-vector products, phase-alternating mixes,
// pollution-sensitive hot sets, and cache-resident loops.
package workload

import (
	"errors"
	"fmt"
	"sort"

	"fdpsim/internal/cpu"
)

// ErrUnknown is the sentinel wrapped by New when asked for a workload
// name that is not registered. Callers branch with errors.Is.
var ErrUnknown = errors.New("workload: unknown workload")

// BlockBytes is the cache-block size shared with the memory hierarchy.
const BlockBytes = 64

// rng is a xorshift64* generator: tiny, fast and stable across Go
// releases so workloads are bit-reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// n returns a value in [0, n).
func (r *rng) n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// hashAddr maps an address to a pseudo-random successor inside a footprint
// — the deterministic stand-in for following a pointer field.
func hashAddr(a, footprint uint64) uint64 {
	x := a
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return (x % (footprint / BlockBytes)) * BlockBytes
}

// gen is the common chassis: Next drains a refillable micro-op queue.
type gen struct {
	name  string
	queue []cpu.MicroOp
	qi    int
	fill  func(g *gen)
}

// newGen returns a generator whose queue holds turn micro-ops, the most
// one call of its fill emits, so that the queue never grows.
func newGen(name string, turn int) *gen {
	return &gen{name: name, queue: make([]cpu.MicroOp, 0, turn)}
}

// Name implements cpu.Source.
func (g *gen) Name() string { return g.name }

// Next implements cpu.Source.
func (g *gen) Next() cpu.MicroOp {
	for g.qi >= len(g.queue) {
		g.queue = g.queue[:0]
		g.qi = 0
		g.fill(g)
	}
	op := g.queue[g.qi]
	g.qi++
	return op
}

func (g *gen) emit(op cpu.MicroOp) { g.queue = append(g.queue, op) }

func (g *gen) nops(n int) {
	for i := 0; i < n; i++ {
		g.emit(cpu.MicroOp{Kind: cpu.Nop})
	}
}

func (g *gen) load(addr, pc uint64) {
	g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: addr, PC: pc})
}

func (g *gen) loadDep(addr, pc uint64, dep int) {
	g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: addr, PC: pc, Dep: dep})
}

func (g *gen) store(addr, pc uint64) {
	g.emit(cpu.MicroOp{Kind: cpu.Store, Addr: addr, PC: pc})
}

// pc builds a distinct program-counter value for a static load site so the
// PC-indexed prefetchers see stable instruction addresses.
func pc(site int) uint64 { return 0x400000 + uint64(site)*4 }

// Well-known registry tags. Every workload carries TagBuiltin (the
// hand-coded kernels) and one side of the paper's benchmark-set split.
const (
	TagBuiltin = "builtin"
	// TagMemIntensive marks the paper's 17-benchmark evaluation set.
	TagMemIntensive = "memintensive"
	// TagLowPotential marks the remaining 9 benchmarks of Figure 14.
	TagLowPotential = "lowpotential"
)

// Spec describes a registered workload.
type Spec struct {
	Name string
	// MemoryIntensive marks membership in the paper's 17-benchmark set;
	// the rest form the 9 low-potential benchmarks of Figure 14.
	MemoryIntensive bool
	// About is a one-line description with the SPEC archetype.
	About string
	// Tags classify the workload for List filtering.
	Tags []string
	make func(seed uint64) cpu.Source
}

// Info is the listing view of a registered workload: the name keyed by
// sim.Config.Workload, the registry tags, and the one-line description.
type Info struct {
	Name  string   `json:"name"`
	Tags  []string `json:"tags"`
	About string   `json:"about,omitempty"`
}

// registry is filled by the init functions of the workload files and
// never written after that.
var registry []Spec

func register(name string, memIntensive bool, about string, make func(seed uint64) cpu.Source) {
	tags := []string{TagBuiltin, TagLowPotential}
	if memIntensive {
		tags = []string{TagBuiltin, TagMemIntensive}
	}
	registry = append(registry, Spec{Name: name, MemoryIntensive: memIntensive, About: about, Tags: tags, make: make})
}

// List returns the workloads carrying every one of the given tags (all
// workloads when none are given), sorted by name. This is the one
// listing entry point; Names, MemoryIntensive and LowPotential are
// derived views kept for compatibility.
func List(tags ...string) []Info {
	var out []Info
	for _, s := range registry {
		if !hasAll(s.Tags, tags) {
			continue
		}
		out = append(out, Info{Name: s.Name, Tags: append([]string(nil), s.Tags...), About: s.About})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func hasAll(have, want []string) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Names returns all workload names, memory-intensive first, the rest
// (the low-potential builtins) alphabetical after.
func Names() []string {
	specs := specsSorted()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

// MemoryIntensive returns the paper's 17-benchmark evaluation set.
func MemoryIntensive() []string {
	var out []string
	for _, i := range List(TagMemIntensive) {
		out = append(out, i.Name)
	}
	return out
}

// LowPotential returns the remaining 9 benchmarks (Figure 14).
func LowPotential() []string {
	var out []string
	for _, i := range List(TagLowPotential) {
		out = append(out, i.Name)
	}
	return out
}

func specsSorted() []Spec {
	specs := make([]Spec, len(registry))
	copy(specs, registry)
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].MemoryIntensive != specs[j].MemoryIntensive {
			return specs[i].MemoryIntensive
		}
		return specs[i].Name < specs[j].Name
	})
	return specs
}

// Lookup returns the spec for a workload name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// New instantiates a workload by name with a seed for its randomized
// aspects (the structure is deterministic; the seed varies addresses).
func New(name string, seed uint64) (cpu.Source, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknown, name, Names())
	}
	return s.make(seed), nil
}

// Exists reports whether a workload name is registered.
func Exists(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// About returns the registered description for a workload.
func About(name string) string {
	if s, ok := Lookup(name); ok {
		return s.About
	}
	return ""
}

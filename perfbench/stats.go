package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-th quantile (0..1) of xs by linear interpolation
// between the closest ranks; xs need not be sorted. It returns 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastQuartile summarizes a per-pass timing by the quartile on its fast
// side: the 25th percentile of a time, the 75th of a rate. Other tenants
// of a shared host slow passes down in bursts of a second or more; the
// fast quartile sets those bursts aside without resting on one lucky pass
// the way a minimum would.
func fastQuartile(xs []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(xs, 0.25)
	}
	return quantile(xs, 0.75)
}

// spread is (max-min)/median of xs, the noise figure reported beside the
// reference loop.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / m
}

// The reference loop stands in for the simulator's own host behaviour —
// scanning and reordering the ways of a set-associative LRU cache, and
// churning a small hash map — so that host ns per simulated instruction
// divided by its ns per iteration carries across CPUs, and tracks a shared
// host's memory contention, better than raw ns. It is the benchmark's own
// code, not the simulator's, so a faster simulator does not move it.
const (
	refSets  = 4096    // 16-way sets: 512 KiB of tags
	refBlock = 1 << 17 // distinct blocks the loop touches
	refIters = 1 << 16
)

type refSet struct {
	tags [16]uint64
	n    int
}

var (
	refCache = make([]refSet, refSets)
	refMap   = make(map[uint64]int32)
	// refSink keeps the reference loop's result alive.
	refSink uint64
)

// refLoop runs the reference loop once and returns its ns per iteration.
func refLoop() float64 {
	// Every call starts from the same empty state, so it repeats exactly
	// the same work.
	for i := range refCache {
		refCache[i].n = 0
	}
	clear(refMap)
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		blk := x % refBlock
		s := &refCache[blk%refSets]
		hit := -1
		for k := 0; k < s.n; k++ {
			if s.tags[k] == blk {
				hit = k
				break
			}
		}
		switch {
		case hit >= 0: // promote to MRU
			copy(s.tags[hit:s.n-1], s.tags[hit+1:s.n])
			s.tags[s.n-1] = blk
		case s.n < len(s.tags):
			s.tags[s.n] = blk
			s.n++
		default: // evict the LRU way
			copy(s.tags[:len(s.tags)-1], s.tags[1:])
			s.tags[len(s.tags)-1] = blk
		}
		k := blk % 4096
		if _, ok := refMap[k]; ok {
			delete(refMap, k)
		} else {
			refMap[k] = int32(i)
		}
	}
	d := time.Since(start)
	refSink += x
	return float64(d.Nanoseconds()) / refIters
}

// refSample is one reading of the host's speed: the median of three runs
// of the reference loop, so one burst of interference does not set it.
func refSample() float64 {
	return median([]float64{refLoop(), refLoop(), refLoop()})
}

// refNominal is the reference loop's nominal cost, ns per iteration: close
// to its median on the 2-vCPU host the benchmark's bounds were set on.
const refNominal = 100.0

// hostScale is the factor that turns a time measured on this host into a
// time at reference speed: refNominal over the reference loop's cost, as
// timed just before and after the pass. A shared host's other tenants
// slow the whole process for seconds to minutes at a time; the reference
// loop slows with it, so scaled timings compare code rather than host
// load.
func hostScale(ref float64) float64 {
	if ref <= 0 {
		return 1
	}
	return refNominal / ref
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// timerCost is the calibrated cost in ns of one timed region around an
// empty call (a time.Now / time.Since pair). The seam wrappers subtract
// it per call so per-call times describe the layer, not the clock.
func timerCost() float64 {
	const n = 1 << 16
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			total += time.Since(t0)
		}
		samples = append(samples, float64(total.Nanoseconds())/n)
	}
	return median(samples)
}

// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark results can be archived as CI artifacts
// and diffed across commits without scraping ad-hoc text.
//
//	go test ./internal/sim -bench . -benchmem | benchjson -out BENCH.json
//	benchjson -in bench.txt
//	benchjson -diff BENCH_9.json BENCH_10.json
//	benchjson -diff -threshold 0.25 old.json new.json
//
// -diff compares two archived reports benchmark-by-benchmark (matched by
// package+name) and exits nonzero on a regression: ns/op growth beyond
// -threshold, or any allocs/op increase. Reports from different CPUs are
// compared report-only for wall time — the warning is printed and only
// the machine-independent allocs/op gate still fails the run.
//
// The parser understands the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs — plus the goos/goarch/pkg/
// cpu context lines, and carries custom ReportMetric units through
// verbatim. Lines it does not recognise are ignored, so mixed test+bench
// output pipes straight in.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fdpsim/internal/cli"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped (it lands in Procs instead).
	Name    string `json:"name"`
	Package string `json:"package,omitempty"`
	Procs   int    `json:"procs,omitempty"`
	// Iterations is b.N for the reported run.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is only meaningful when -benchmem was set; a genuine 0
	// is distinguished from "not measured" by Metrics, which only holds
	// units that actually appeared on the line.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every (unit → value) pair verbatim, including the
	// three standard ones above and any b.ReportMetric custom units.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// Generated is the RFC 3339 parse time, for artifact bookkeeping.
	Generated  string      `json:"generated"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes go-test benchmark output and returns the report.
// Context lines (goos:, pkg:, cpu:) apply to the benchmarks that follow
// them, matching how `go test ./...` interleaves per-package headers.
func parse(r io.Reader) (Report, error) {
	rep := Report{GoVersion: runtime.Version()}
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine parses one result line:
//
//	BenchmarkFoo-8   1000000   1056 ns/op   12 B/op   0 allocs/op   3.2 misses/op
//
// ok is false for lines that start with "Benchmark" but are not results
// (e.g. a bare name echoed by -v).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Iterations: iters, Metrics: map[string]float64{}}
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		b.Metrics[unit] = v
		switch unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text to parse (empty = stdin)")
		out       = flag.String("out", "", "JSON output path (empty = stdout)")
		diff      = flag.Bool("diff", false, "compare two archived reports: benchjson -diff OLD.json NEW.json")
		threshold = flag.Float64("threshold", 0.10, "allowed fractional ns/op growth in -diff (0.10 = +10%)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion("benchjson")
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			cli.Fatalf("benchjson", cli.ExitUsage, "-diff wants exactly two report paths, got %d", flag.NArg())
		}
		if *threshold < 0 {
			cli.Fatalf("benchjson", cli.ExitUsage, "-threshold must be >= 0, got %g", *threshold)
		}
		oldRep, err := loadReport(flag.Arg(0))
		cli.FatalIf("benchjson", err)
		newRep, err := loadReport(flag.Arg(1))
		cli.FatalIf("benchjson", err)
		deltas, comparable := diffReports(oldRep, newRep, *threshold)
		if regressed := renderDiff(os.Stdout, flag.Arg(0), flag.Arg(1), deltas, comparable, *threshold); regressed > 0 {
			cli.Fatalf("benchjson", cli.ExitError, "%d benchmark(s) regressed", regressed)
		}
		return
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		cli.FatalIf("benchjson", err)
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	cli.FatalIf("benchjson", err)
	if len(rep.Benchmarks) == 0 {
		cli.Fatalf("benchjson", cli.ExitError, "no benchmark result lines in input")
	}
	rep.Generated = time.Now().UTC().Format(time.RFC3339)

	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		cli.FatalIf("benchjson", err)
		defer func() { cli.FatalIf("benchjson", f.Close()) }()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	cli.FatalIf("benchjson", enc.Encode(rep))
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(rep.Benchmarks), *out)
	}
}

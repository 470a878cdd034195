// Package cli holds the helpers shared by the fdpsim, experiments,
// tracegen and fdpserved commands: the documented exit-code table and the
// fatal-error plumbing, so every binary reports failures identically.
//
// Exit codes (stable; scripts may rely on them):
//
//	0    success — including a planned stop, such as an expired -timeout
//	     deadline (the run was bounded on purpose, its output is valid)
//	1    runtime error (I/O failure, simulation fault, internal error)
//	2    bad usage: unknown flag value, invalid configuration, unknown
//	     workload or prefetcher name — and -list listings, which are help
//	     text and print to stderr (see Listing)
//	130  interrupted by SIGINT (128 + signal 2, the shell convention)
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fdpsim/internal/sim"
	"fdpsim/internal/sweep"
	"fdpsim/internal/workload/spec"
)

// Exit codes by name; see the package comment for the table.
const (
	ExitOK          = 0
	ExitError       = 1
	ExitUsage       = 2
	ExitInterrupted = 130
)

// ExitCode maps an error from the simulator stack to the documented exit
// code. A nil error and a deadline-stop both mean success.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.DeadlineExceeded):
		return ExitOK // a -timeout stop is planned, not a failure
	case errors.Is(err, sim.ErrCancelled):
		return ExitInterrupted
	case errors.Is(err, sim.ErrUnknownWorkload), errors.Is(err, sim.ErrInvalidConfig),
		errors.Is(err, spec.ErrInvalid), errors.Is(err, sweep.ErrInvalid):
		// sweep.ErrInvalid covers sweep-grid validation — a bad axis, an
		// empty grid, an unknown tenant (sweep.ErrUnknownTenant wraps it).
		return ExitUsage
	default:
		return ExitError
	}
}

// FatalIf exits with the error's mapped exit code after printing
// "tool: err" to stderr; a nil error is a no-op.
func FatalIf(tool string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitCode(err))
}

// Fatalf prints "tool: message" to stderr and exits with the given code.
func Fatalf(tool string, code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(code)
}

// Listing renders a -list flag's output to stderr and exits with
// ExitUsage. Listings are help text, not program output: like the flag
// package's own -h handling they belong on stderr with exit code 2, so a
// pipeline consuming a tool's stdout (JSON, CSV, trace bytes) never sees
// them and scripts can tell "printed a listing" from a successful run.
func Listing(render func(w io.Writer)) {
	render(os.Stderr)
	os.Exit(ExitUsage)
}

// LoadSpec serves a -spec flag: it loads and validates the WorkloadSpec
// file at path, exiting with the mapped code on failure. Callers run it
// before anything else, so a typo in the file fails with exit code 2
// before any artifact is opened, and run the spec straight from the
// returned value. Unless -workload was set on the command line, the
// spec's name stands for it. An empty path returns nil.
func LoadSpec(tool, path string, workloadName *string) *spec.Spec {
	if path == "" {
		return nil
	}
	sp, err := spec.Load(path)
	FatalIf(tool, err)
	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "workload" })
	if !explicit {
		*workloadName = sp.Name
	}
	return sp
}

// SetLevel applies fdpsim's and tracegen's -level rule to axis: a
// conventional prefetcher runs at level, which must lie in 1..5 (the axis
// reads 0 as 5), or the error wraps sim.ErrInvalidConfig; FDP and no
// prefetcher ignore the flag.
func SetLevel(axis *sweep.ConfigAxis, level int) error {
	if axis.FDP || axis.Prefetcher == string(sim.PrefNone) {
		return nil
	}
	if level < 1 || level > 5 {
		return fmt.Errorf("%w: -level %d out of range 1..5", sim.ErrInvalidConfig, level)
	}
	axis.Level = level
	return nil
}

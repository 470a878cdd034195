// Command fdptop is a live terminal dashboard for the simulator's
// cycle-accounting and bandwidth-attribution telemetry: per-FDP-interval
// IPC (and the run's BPKI once it is done), a top-down stall breakdown
// that always sums to 100% of the interval's cycles, bus utilization split
// by transaction kind, DRAM row-hit rate, and MSHR/queue pressure.
//
// It has four sources and one escape hatch:
//
//	fdptop -addr 127.0.0.1:8080 -job 3f2c91ab      attach to a running
//	                                               fdpserved job over SSE
//	fdptop -addr 127.0.0.1:8080 -sweep sweep-0001  sweep/fleet pane: cell
//	                                               progress + fabric lanes
//	fdptop -store /var/cache/fdpsim -prov <fp>     print a fingerprint's
//	                                               provenance ledger
//	fdptop -store /var/cache/fdpsim -diff fpA,fpB  diff two fingerprints'
//	                                               interval series
//	fdptop -replay trace.jsonl                     replay a decision trace
//	                                               recorded with -attr
//	fdptop -replay trace.jsonl -once               render the final frame
//	                                               and exit (CI, pipes)
//
// In a terminal the dashboard redraws in place (ANSI home+clear); when
// stdout is not a TTY, or with -once, frames print sequentially so the
// output stays greppable. Stall and bus panes need attribution samples:
// submit jobs with "attribution": true, or trace with fdpsim -attr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"fdpsim"
	"fdpsim/internal/cli"
	"fdpsim/internal/obs"
	"fdpsim/internal/service"
)

const tool = "fdptop"

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "fdpserved address for -job and -sweep")
		job      = flag.String("job", "", "fdpserved job ID to attach to over SSE")
		sweepID  = flag.String("sweep", "", "fdpserved sweep ID: aggregate progress + per-worker fabric lanes")
		prov     = flag.String("prov", "", "print a fingerprint's provenance ledger (with -store) and exit")
		diffSpec = flag.String("diff", "", "compare two fingerprints' interval series, \"fpA,fpB\" (with -store), and exit")
		storeDir = flag.String("store", "", "result-store directory for -prov and -diff")
		replay   = flag.String("replay", "", "replay a JSONL decision trace instead of attaching")
		once     = flag.Bool("once", false, "render a single final frame and exit (no redraw)")
		rate     = flag.Duration("rate", 40*time.Millisecond, "replay frame delay in TTY mode")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion(tool)
		return
	}
	// Build info goes to stderr so piped dashboard frames stay clean.
	fmt.Fprintf(os.Stderr, "%s\n", cli.Version(tool))

	switch {
	case *prov != "":
		if *storeDir == "" {
			cli.Fatalf(tool, cli.ExitUsage, "-prov requires -store <dir> (the shared result-store directory)")
		}
		cli.FatalIf(tool, showProvenance(os.Stdout, *storeDir, *prov))
	case *diffSpec != "":
		if *storeDir == "" {
			cli.Fatalf(tool, cli.ExitUsage, "-diff requires -store <dir> (the shared result-store directory)")
		}
		cli.FatalIf(tool, showDiff(os.Stdout, *storeDir, *diffSpec))
	case *replay != "":
		cli.FatalIf(tool, replayTrace(os.Stdout, *replay, *once, *rate))
	case *sweepID != "":
		cli.FatalIf(tool, attachSweep(os.Stdout, *addr, *sweepID, *once))
	case *job != "":
		cli.FatalIf(tool, attach(os.Stdout, *addr, *job, *once))
	default:
		cli.Fatalf(tool, cli.ExitUsage, "use -job or -sweep <id> (with -addr) to attach, -prov <fp> or -diff <fpA,fpB> with -store <dir>, or -replay <trace.jsonl>")
	}
}

// isTTY reports whether w is an interactive terminal — the gate for
// in-place redraw versus sequential frames.
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// clearScreen is the ANSI home+erase sequence used between TTY frames.
const clearScreen = "\x1b[H\x1b[2J"

// replayTrace renders a recorded decision trace. With once set, only the
// cumulative final frame prints; otherwise every interval renders (paced
// by rate when drawing to a TTY, immediate when piped).
func replayTrace(w io.Writer, path string, once bool, rate time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no decision events", path)
	}
	d := newDash("replay " + path)
	tty := isTTY(w)
	for i, ev := range events {
		d.observe(frameFromEvent(ev))
		d.done = i == len(events)-1
		if once {
			continue
		}
		if tty {
			fmt.Fprint(w, clearScreen)
		}
		d.render(w)
		if !tty {
			fmt.Fprintln(w)
		}
		if tty && rate > 0 {
			time.Sleep(rate)
		}
	}
	if once {
		d.render(w)
	}
	return nil
}

// attach subscribes to a job's SSE event stream on fdpserved and renders
// every "progress" event until the "done" event arrives, whose Result
// closes the dashboard. With once set, only that closing frame prints.
func attach(w io.Writer, addr, jobID string, once bool) error {
	url := fmt.Sprintf("http://%s/v1/jobs/%s/events", addr, jobID)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	d := newDash(fmt.Sprintf("job %s @ %s", jobID, addr))
	tty := isTTY(w)
	draw := func() {
		if once {
			return
		}
		if tty {
			fmt.Fprint(w, clearScreen)
		}
		d.render(w)
		if !tty {
			fmt.Fprintln(w)
		}
	}

	err = scanSSE(resp.Body, func(event string, data []byte) error {
		switch event {
		case "progress":
			var ev fdpsim.DecisionEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("progress event: %w", err)
			}
			d.observe(frameFromEvent(ev))
			draw()
		case "done":
			var st service.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("done event: %w", err)
			}
			d.finish(st.Result)
			draw()
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone {
		return err
	}
	if d.frames == 0 && d.res == nil {
		return fmt.Errorf("job %s closed no interval and has no result (check the job ID)", jobID)
	}
	if once {
		d.render(w)
	}
	return nil
}

// errDone is scanSSE's internal "stream finished cleanly" sentinel.
var errDone = fmt.Errorf("done")

// scanSSE parses a Server-Sent-Events stream and calls fn once per
// complete event. Returning errDone from fn stops the scan cleanly.
func scanSSE(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case len(line) == 0:
			if event != "" {
				if err := fn(event, data); err != nil {
					return err
				}
			}
			event, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		}
	}
	return sc.Err()
}

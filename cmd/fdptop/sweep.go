package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/service"
)

// The sweep pane attaches to a sweep's aggregate SSE feed and renders
// the fabric view: cell progress on top, one lane per worker below —
// how many jobs each fleet member claimed, ran and adopted, mean queue
// and run times, and how many leases were stolen. The lane table comes
// from the sweep's span trace (GET /v1/sweeps/{id}/trace?format=json),
// refreshed at most once a second so the SSE cadence, not the span
// fetch, paces the redraw.

// spanRefresh bounds how often the sweep pane re-fetches the span trace.
const spanRefresh = time.Second

// lane is one worker's aggregated span activity within a sweep.
type lane struct {
	actor   string
	tenants map[string]bool
	claims  int
	runs    int
	adopted int
	steals  int
	queueMS float64 // summed; divide by runs+adopted for the mean
	runMS   float64
}

// sweepDash accumulates sweep SSE frames plus the span-lane summary.
type sweepDash struct {
	source  string
	last    service.SweepStatus
	lanes   []lane
	spanned int // spans folded into lanes, for the header
	frames  uint64
}

// foldSpans rebuilds the lane table from a fresh span fetch. Spans
// arrive whole (recorded at completion), so rebuilding from scratch is
// simpler and no less accurate than increments.
func (d *sweepDash) foldSpans(spans []obs.Span) {
	byActor := map[string]*lane{}
	for _, sp := range spans {
		if sp.Actor == "" {
			continue
		}
		ln, ok := byActor[sp.Actor]
		if !ok {
			ln = &lane{actor: sp.Actor, tenants: map[string]bool{}}
			byActor[sp.Actor] = ln
		}
		if sp.Lane != "" {
			ln.tenants[sp.Lane] = true
		}
		switch sp.Name {
		case "queue":
			ln.queueMS += sp.Duration().Seconds() * 1000
		case "run":
			ln.runMS += sp.Duration().Seconds() * 1000
			ln.runs++
		case "claim":
			ln.claims++
			if sp.Attrs["outcome"] == "adopted" {
				ln.adopted++
			}
			for _, ev := range sp.Events {
				if ev.Name == "lease-steal" {
					ln.steals++
				}
			}
		}
	}
	d.lanes = d.lanes[:0]
	for _, ln := range byActor {
		d.lanes = append(d.lanes, *ln)
	}
	sort.Slice(d.lanes, func(i, j int) bool { return d.lanes[i].actor < d.lanes[j].actor })
	d.spanned = len(spans)
}

func (d *sweepDash) observe(ev service.SweepStatus) {
	d.last = ev
	d.frames++
}

// render writes one sweep-pane frame: aggregate header, progress bar,
// then the per-worker fabric lanes.
func (d *sweepDash) render(w io.Writer) {
	ev := d.last
	s := ev.Summary
	fmt.Fprintf(w, "fdptop — %s  [%s]\n", d.source, ev.State)
	fmt.Fprintf(w, "cells %d  done %d  running %d  queued %d  failed %d  cancelled %d  cache-hits %d\n",
		s.Total, s.Done, s.Running, s.Queued, s.Failed, s.Cancelled, s.CacheHits)
	share := 0.0
	if s.Total > 0 {
		share = float64(s.Done+s.Failed+s.Cancelled) / float64(s.Total)
	}
	fmt.Fprintf(w, "prog  %s %5.1f%%  elapsed %s%s\n",
		bar(share, 32), 100*share, fmtSeconds(ev.ElapsedSeconds), etaCell(ev))
	fmt.Fprintf(w, "agg   mean IPC %6.3f  mean BPKI %6.2f\n", s.MeanIPC, s.MeanBPKI)
	if len(d.lanes) == 0 {
		fmt.Fprintf(w, "fabric: no spans yet (%d recorded)\n", d.spanned)
		return
	}
	fmt.Fprintf(w, "fabric lanes (%d spans)\n", d.spanned)
	fmt.Fprintf(w, "  %-12s %-10s %5s %5s %6s %6s %9s %9s\n",
		"worker", "tenants", "runs", "claim", "adopt", "steal", "q-mean", "run-mean")
	for _, ln := range d.lanes {
		fmt.Fprintf(w, "  %-12s %-10s %5d %5d %6d %6d %9s %9s\n",
			ln.actor, tenantCell(ln.tenants), ln.runs, ln.claims, ln.adopted, ln.steals,
			meanMS(ln.queueMS, ln.runs+ln.adopted), meanMS(ln.runMS, ln.runs))
	}
}

func tenantCell(ts map[string]bool) string {
	names := make([]string, 0, len(ts))
	for t := range ts {
		names = append(names, t)
	}
	sort.Strings(names)
	cell := strings.Join(names, ",")
	if len(cell) > 10 {
		cell = cell[:9] + "…"
	}
	if cell == "" {
		cell = "-"
	}
	return cell
}

func meanMS(sum float64, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", sum/float64(n))
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(100 * time.Millisecond).String()
}

func etaCell(ev service.SweepStatus) string {
	if ev.ETASeconds <= 0 {
		return ""
	}
	return "  eta " + fmtSeconds(ev.ETASeconds)
}

// fetchSpans pulls the sweep's raw span trace for the lane table.
func fetchSpans(addr, sweepID string) ([]obs.Span, error) {
	url := fmt.Sprintf("http://%s/v1/sweeps/%s/trace?format=json", addr, sweepID)
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	var doc struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("sweep trace: %w", err)
	}
	return doc.Spans, nil
}

// attachSweep subscribes to a sweep's aggregate SSE feed and renders a
// frame per "summary" event until "done". The span-lane table refreshes
// at most once per spanRefresh, plus once after the stream ends so the
// final frame shows the complete fabric picture.
func attachSweep(w io.Writer, addr, sweepID string, once bool) error {
	url := fmt.Sprintf("http://%s/v1/sweeps/%s/events", addr, sweepID)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	d := &sweepDash{source: fmt.Sprintf("sweep %s @ %s", sweepID, addr)}
	tty := isTTY(w)
	var lastFetch time.Time
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
		case "summary":
			var ev service.SweepStatus
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("summary event: %w", err)
			}
			d.observe(ev)
			if time.Since(lastFetch) >= spanRefresh {
				lastFetch = time.Now()
				if spans, err := fetchSpans(addr, sweepID); err == nil {
					d.foldSpans(spans)
				}
			}
			draw()
		case "done":
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone {
		return err
	}
	if d.frames == 0 {
		return fmt.Errorf("sweep %s produced no summary events (check the sweep ID)", sweepID)
	}
	// Final refresh: the last summary can race the tail spans (store
	// writes, the sweep root's end) landing in the sweep's trace.
	if spans, err := fetchSpans(addr, sweepID); err == nil {
		d.foldSpans(spans)
	}
	if d.last.State == "running" {
		d.last.State = "done"
	}
	if tty && !once {
		fmt.Fprint(w, clearScreen)
	}
	d.render(w)
	if !tty && !once {
		fmt.Fprintln(w)
	}
	return nil
}

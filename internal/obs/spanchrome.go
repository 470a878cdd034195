package obs

import (
	"io"
	"sort"
	"time"
)

// WriteSpansChrome renders fabric spans as one Chrome trace_event
// document (loadable in Perfetto / chrome://tracing), the sibling of
// WriteChrome for decision events. The lane mapping is the one the sweep
// fabric wants on a timeline:
//
//   - one trace *process* (pid) per actor — each fleet worker gets its
//     own lane group, so a two-worker sweep renders as two stacked lanes;
//   - one *thread* (tid) per (actor, lane) pair — within a worker, each
//     tenant's work is its own row;
//   - each span is a complete event ("X") whose args carry the trace,
//     span and parent IDs plus the span's attributes;
//   - span events (lease renewals, claim waits, steals) become instant
//     events ("i") at their timestamps.
//
// Timestamps are microseconds relative to the earliest span start, so
// the timeline opens at zero rather than at the Unix epoch.
func WriteSpansChrome(w io.Writer, spans []Span) error {
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	us := func(t time.Time) float64 {
		if t.Before(epoch) {
			return 0
		}
		return float64(t.Sub(epoch).Microseconds())
	}

	// Deterministic lane numbering: sorted actor names → pids, sorted
	// (actor, lane) pairs → tids. Unattributed spans land on lane 0.
	pids := map[string]int{}
	tids := map[string]int{}
	var actors []string
	type row struct{ actor, lane string }
	var rows []row
	seenRow := map[row]bool{}
	for _, s := range spans {
		if _, ok := pids[s.Actor]; !ok {
			pids[s.Actor] = 0
			actors = append(actors, s.Actor)
		}
		r := row{s.Actor, s.Lane}
		if !seenRow[r] {
			seenRow[r] = true
			rows = append(rows, r)
		}
	}
	sort.Strings(actors)
	for i, a := range actors {
		pids[a] = i + 1
	}
	sort.Slice(rows, func(i, k int) bool {
		if rows[i].actor != rows[k].actor {
			return rows[i].actor < rows[k].actor
		}
		return rows[i].lane < rows[k].lane
	})
	for i, r := range rows {
		tids[r.actor+"\x00"+r.lane] = i + 1
	}

	doc := newChromeDoc(w)
	for _, a := range actors {
		name := a
		if name == "" {
			name = "fabric"
		}
		doc.emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pids[a],
			Args: map[string]any{"name": name}})
	}
	for _, r := range rows {
		name := r.lane
		if name == "" {
			name = "(default)"
		}
		doc.emit(chromeEvent{Name: "thread_name", Ph: "M",
			Pid: pids[r.actor], Tid: tids[r.actor+"\x00"+r.lane],
			Args: map[string]any{"name": "tenant " + name}})
	}

	for _, s := range spans {
		pid, tid := pids[s.Actor], tids[s.Actor+"\x00"+s.Lane]
		args := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
		}
		if s.Parent != "" {
			args["parent_id"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		// The complete-event form needs a duration; Perfetto rejects
		// negative ones, so torn cross-process clocks clamp to zero.
		ev := struct {
			chromeEvent
			Dur float64 `json:"dur"`
		}{
			chromeEvent: chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.Start), Pid: pid, Tid: tid, Args: args},
			Dur:         float64(s.Duration().Microseconds()),
		}
		doc.emit(ev)
		for _, e := range s.Events {
			eargs := map[string]any{"span_id": s.SpanID}
			for k, v := range e.Attrs {
				eargs[k] = v
			}
			doc.emit(chromeEvent{Name: e.Name, Ph: "i", Ts: us(e.Time),
				Pid: pid, Tid: tid, S: "t", Args: eargs})
		}
	}
	return doc.close()
}

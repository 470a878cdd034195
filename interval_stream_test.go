package fdpsim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdpsim/internal/obs"
	"fdpsim/internal/series"
)

// storedJSONL encodes what rec recorded, decodes the document and renders
// the decoded events as the JSONL decision trace, which is how the job
// service serves a stored stream.
func storedJSONL(t *testing.T, rec *series.Recorder) ([]byte, []DecisionEvent) {
	t.Helper()
	doc, err := series.Encode(rec.Series())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	sr, err := series.Decode(doc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var out bytes.Buffer
	if err := obs.WriteJSONL(&out, sr.Events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return out.Bytes(), sr.Events
}

// recordStream runs cfg under the live JSONL tracer teed with a series
// recorder, checks that the stored stream renders the live bytes, and
// returns the decoded events.
func recordStream(t *testing.T, cfg Config) []DecisionEvent {
	t.Helper()
	var live bytes.Buffer
	jsonl := obs.NewJSONL(&live)
	rec := &series.Recorder{}
	cfg.Tracer = obs.Tee(jsonl, rec)
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	got, events := storedJSONL(t, rec)
	if !bytes.Equal(got, live.Bytes()) {
		t.Fatalf("%d-instruction run: the JSONL rendered from the stored stream differs from the live trace (%d vs %d bytes)",
			cfg.MaxInsts, len(got), live.Len())
	}
	return events
}

// TestIntervalStreamGoldenGrid runs every goldenBase FDP cell (each
// workload under each prefetcher), with attribution off and on, at 20k
// and 40k instructions, and checks three properties of the streams:
//
//   - the stored stream is the trace: the JSONL rendered from
//     Decode(Encode(rec.Series())) is byte-identical to the live tracer's;
//   - prefix: the 20k run's stream is the first events of the 40k run's,
//     so a loop, skip or stop change that reaches earlier cycles fails,
//     naming the cell and the interval;
//   - Table 2 coverage: after warm-up (Cycle > 0) the 20k runs of the
//     stream, GHB and hybrid prefetchers fire all 12 Table 2 rows, so a
//     model change that stops exercising a row fails, naming it. Stride,
//     nextline and dahlgren never reach some rows at this scale and are
//     not checked.
//
// The hostile decision-trace golden takes the same round trip.
func TestIntervalStreamGoldenGrid(t *testing.T) {
	kinds := []PrefetcherKind{PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid}
	type cell struct {
		name string
		cfg  Config
		rows [13]int // post-warm-up 20k-run events per Table 2 row
	}
	var cells []*cell
	for _, info := range WorkloadList() {
		for _, k := range kinds {
			for _, attr := range []bool{false, true} {
				cfg := goldenBase(k, info.Name)
				cfg.Attribution = attr
				cells = append(cells, &cell{name: fmt.Sprintf("%s/%s/attr=%v", info.Name, k, attr), cfg: cfg})
			}
		}
	}
	t.Run("cells", func(t *testing.T) {
		for _, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				short := recordStream(t, c.cfg)
				long := c.cfg
				long.MaxInsts *= 2
				full := recordStream(t, long)
				if len(short) > len(full) {
					t.Fatalf("the %d-instruction run closed %d intervals, the %d-instruction run %d",
						c.cfg.MaxInsts, len(short), long.MaxInsts, len(full))
				}
				for i := range short {
					if !reflect.DeepEqual(short[i], full[i]) {
						t.Fatalf("interval %d: the %d-instruction stream is no prefix of the %d-instruction one:\n%+v\n%+v",
							short[i].Interval, c.cfg.MaxInsts, long.MaxInsts, short[i], full[i])
					}
					if ev := short[i]; ev.Cycle > 0 && ev.Case >= 0 && ev.Case < len(c.rows) {
						c.rows[ev.Case]++
					}
				}
			})
		}
	})
	t.Run("hostile", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("internal", "obs", "testdata", "hostile_decision_trace.golden.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		rec := &series.Recorder{}
		for _, ev := range events {
			rec.TraceDecision(ev)
		}
		if got, _ := storedJSONL(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("the hostile golden's %d events render %d bytes from the stored stream, want its %d",
				len(events), len(got), len(want))
		}
	})
	if t.Failed() {
		return
	}
	for _, k := range []PrefetcherKind{PrefStream, PrefGHB, PrefHybrid} {
		var fired [13]int
		for _, c := range cells {
			if c.cfg.Prefetcher == k {
				for row, n := range c.rows {
					fired[row] += n
				}
			}
		}
		for row := 1; row <= 12; row++ {
			if fired[row] == 0 {
				t.Errorf("%s: Table 2 row %d never fired after warm-up in the goldenBase grid", k, row)
			}
		}
	}
}

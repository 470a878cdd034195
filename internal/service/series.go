package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"fdpsim/internal/series"
)

// The interval-timeseries endpoints: per-job series queries (windowed
// downsampling, metric selection, JSON or CSV), the sweep-level merged
// series, and the run-diff endpoint — the HTTP face of internal/series.

// seriesMetricJSON is one column of a GET .../series JSON response:
// either raw per-interval values (step=1) or downsampled buckets.
type seriesMetricJSON struct {
	Name    string          `json:"name"`
	Unit    string          `json:"unit,omitempty"`
	Values  []float64       `json:"values,omitempty"`
	Buckets []series.Bucket `json:"buckets,omitempty"`
}

// seriesResponse is the GET .../series JSON body.
type seriesResponse struct {
	Meta    series.Meta        `json:"meta"`
	Step    int                `json:"step"`
	Metrics []seriesMetricJSON `json:"metrics"`
}

// seriesQuery parses the shared ?metrics= and ?step= parameters,
// returning the selected catalog column indexes.
func seriesQuery(r *http.Request) (cols []int, step int, err error) {
	q := r.URL.Query()
	step = 1
	if raw := q.Get("step"); raw != "" {
		step, err = strconv.Atoi(raw)
		if err != nil || step < 1 {
			return nil, 0, fmt.Errorf("invalid step %q (want a positive integer)", raw)
		}
	}
	if raw := q.Get("metrics"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			name = strings.TrimSpace(name)
			idx := series.MetricIndex(name)
			if idx < 0 {
				return nil, 0, fmt.Errorf("unknown metric %q (see the catalog in docs/OBSERVABILITY.md)", name)
			}
			cols = append(cols, idx)
		}
	} else {
		for i := range series.Catalog {
			cols = append(cols, i)
		}
	}
	return cols, step, nil
}

// writeSeries renders a decoded series with the shared query grammar:
// ?metrics= column selection, ?step= downsampling, ?format=json|csv.
func writeSeries(w http.ResponseWriter, r *http.Request, sr *series.Series, filename string) {
	cols, step, err := seriesQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		resp := seriesResponse{Meta: sr.Meta, Step: step}
		for _, ci := range cols {
			m := series.Catalog[ci]
			mj := seriesMetricJSON{Name: m.Name, Unit: m.Unit}
			if step == 1 {
				mj.Values = sr.Columns[ci]
			} else {
				mj.Buckets = series.Downsample(sr.Columns[ci], step)
			}
			resp.Metrics = append(resp.Metrics, mj)
		}
		writeJSON(w, http.StatusOK, resp)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", filename))
		w.WriteHeader(http.StatusOK)
		writeSeriesCSV(w, sr, cols, step)
	default:
		writeError(w, http.StatusBadRequest, "unknown series format %q (want json or csv)", format)
	}
}

// writeSeriesCSV streams the selected columns as CSV: one row per
// interval at step 1, or one row per window (with min/mean/max/p95 per
// metric) when downsampling.
func writeSeriesCSV(w http.ResponseWriter, sr *series.Series, cols []int, step int) {
	if step == 1 {
		fmt.Fprint(w, "interval")
		for _, ci := range cols {
			fmt.Fprintf(w, ",%s", series.Catalog[ci].Name)
		}
		fmt.Fprintln(w)
		for i := 0; i < sr.Len(); i++ {
			fmt.Fprintf(w, "%d", i+1)
			for _, ci := range cols {
				fmt.Fprintf(w, ",%g", sr.Columns[ci][i])
			}
			fmt.Fprintln(w)
		}
		return
	}
	fmt.Fprint(w, "start,n")
	for _, ci := range cols {
		name := series.Catalog[ci].Name
		fmt.Fprintf(w, ",%s_min,%s_mean,%s_max,%s_p95", name, name, name, name)
	}
	fmt.Fprintln(w)
	buckets := make([][]series.Bucket, len(cols))
	for k, ci := range cols {
		buckets[k] = series.Downsample(sr.Columns[ci], step)
	}
	if len(buckets) == 0 || len(buckets[0]) == 0 {
		return
	}
	for bi := range buckets[0] {
		fmt.Fprintf(w, "%d,%d", buckets[0][bi].Start, buckets[0][bi].N)
		for k := range cols {
			b := buckets[k][bi]
			fmt.Fprintf(w, ",%g,%g,%g,%g", b.Min, b.Mean, b.Max, b.P95)
		}
		fmt.Fprintln(w)
	}
}

// jobSeries decodes a job's interval stream. A job that recorded none
// answers nil and no error.
func jobSeries(job *Job) (*series.Series, error) {
	doc, ok := job.SeriesData()
	if !ok {
		return nil, nil
	}
	return series.Decode(doc)
}

// terminalSeries resolves {id} to a terminal job and its decoded
// interval stream, the one path behind /trace and /series. Otherwise it
// answers the request itself — unknown job 404, not terminal 409, no
// stream 404, a stream that does not decode 500 — and returns false.
func (s *Server) terminalSeries(w http.ResponseWriter, r *http.Request) (*Job, *series.Series, bool) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil, nil, false
	}
	if !job.Status().State.Terminal() {
		writeError(w, http.StatusConflict,
			"job %s has not finished; its interval stream is available once the job is terminal", job.ID())
		return nil, nil, false
	}
	sr, err := jobSeries(job)
	switch {
	case err != nil:
		writeError(w, http.StatusInternalServerError, "stored interval stream is unreadable: %v", err)
	case sr == nil:
		writeError(w, http.StatusNotFound,
			"job %s recorded no interval stream; submit with \"series\": true or \"trace\": true", job.ID())
	}
	return job, sr, sr != nil
}

// handleSeries serves a terminal job's interval timeseries.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if job, sr, ok := s.terminalSeries(w, r); ok {
		writeSeries(w, r, sr, job.ID()+".series.csv")
	}
}

// handleSweepSeries serves the element-wise mean of every distinct
// terminal cell's series — the sweep's average per-interval trajectory.
// Cells without a series (not recorded, cancelled before they ran, or a
// stream that does not decode) are skipped; a sweep with none reports
// 404.
func (s *Server) handleSweepSeries(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	sw.mu.Lock()
	jobs := sw.distinct
	sw.mu.Unlock()
	var runs []*series.Series
	for _, j := range jobs {
		if !j.Status().State.Terminal() {
			continue
		}
		if sr, _ := jobSeries(j); sr != nil && sr.Len() > 0 {
			runs = append(runs, sr)
		}
	}
	if len(runs) == 0 {
		writeError(w, http.StatusNotFound,
			"sweep %s has no cell series; submit the sweep with \"series\": true and wait for cells to finish", sw.ID())
		return
	}
	merged := series.Merge(runs...)
	merged.Meta.Workload = fmt.Sprintf("%d cells", len(runs))
	writeSeries(w, r, merged, sw.ID()+".series.csv")
}

// seriesByFingerprint resolves a fingerprint to a decoded series: the
// store sidecar first (survives restarts), then any in-memory job for the
// fingerprint (storeless servers, tests). A stream that does not decode
// counts as none.
func (s *Server) seriesByFingerprint(fp string) (*series.Series, bool) {
	if s.cfg.Store != nil {
		if doc, ok := s.cfg.Store.GetSeries(fp); ok {
			if sr, err := series.Decode(doc); err == nil {
				return sr, true
			}
		}
	}
	if job, ok := s.jobByFingerprint(fp); ok {
		if sr, _ := jobSeries(job); sr != nil {
			return sr, true
		}
	}
	return nil, false
}

// handleDiff aligns two fingerprints' series and reports per-metric
// residuals with a verdict against the default tolerance bands
// (series.DefaultTolerances). ?skip_a= / ?skip_b= drop leading intervals
// (warmup offsets); ?deltas=1 attaches the full per-interval delta
// series to each metric.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fpA, fpB := q.Get("a"), q.Get("b")
	if fpA == "" || fpB == "" {
		s.m.countDiff("error")
		writeError(w, http.StatusBadRequest, "diff needs ?a= and ?b= fingerprints")
		return
	}
	var opts series.Options
	var err error
	if raw := q.Get("skip_a"); raw != "" {
		if opts.SkipA, err = strconv.Atoi(raw); err != nil || opts.SkipA < 0 {
			s.m.countDiff("error")
			writeError(w, http.StatusBadRequest, "invalid skip_a %q", raw)
			return
		}
	}
	if raw := q.Get("skip_b"); raw != "" {
		if opts.SkipB, err = strconv.Atoi(raw); err != nil || opts.SkipB < 0 {
			s.m.countDiff("error")
			writeError(w, http.StatusBadRequest, "invalid skip_b %q", raw)
			return
		}
	}
	opts.IncludeDeltas = q.Get("deltas") == "1"

	srA, okA := s.seriesByFingerprint(fpA)
	if !okA {
		s.m.countDiff("error")
		writeError(w, http.StatusNotFound, "no series for fingerprint %s", shortFP(fpA))
		return
	}
	srB, okB := s.seriesByFingerprint(fpB)
	if !okB {
		s.m.countDiff("error")
		writeError(w, http.StatusNotFound, "no series for fingerprint %s", shortFP(fpB))
		return
	}
	rep := series.Diff(srA, srB, opts)
	s.m.countDiff(rep.Verdict)
	writeJSON(w, http.StatusOK, rep)
}

package series

// Merge combines several runs' series into one element-wise-mean series
// over their common interval prefix — the sweep-level view: the average
// per-interval trajectory across a sweep's cells. Metrics are taken from
// the first series; inputs missing a metric are skipped for that column.
// Merge(nil...) and Merge() return an empty series.
func Merge(runs ...*Series) *Series {
	inputs := runs[:0:0]
	for _, s := range runs {
		if s != nil && s.Len() > 0 {
			inputs = append(inputs, s)
		}
	}
	if len(inputs) == 0 {
		return &Series{Meta: Meta{Version: Version, Metrics: []string{}}, Columns: [][]float64{}}
	}

	n := inputs[0].Len()
	for _, s := range inputs[1:] {
		if s.Len() < n {
			n = s.Len()
		}
	}

	first := inputs[0]
	out := &Series{
		Meta: Meta{
			Version:    Version,
			Workload:   first.Meta.Workload,
			Prefetcher: first.Meta.Prefetcher,
			Controller: "merged",
			Intervals:  n,
			Metrics:    append([]string(nil), first.Meta.Metrics...),
		},
		Columns: make([][]float64, len(first.Meta.Metrics)),
	}
	for ci, name := range out.Meta.Metrics {
		col := make([]float64, n)
		contributors := 0
		for _, s := range inputs {
			src, ok := s.Column(name)
			if !ok {
				continue
			}
			contributors++
			for i := 0; i < n; i++ {
				col[i] += src[i]
			}
		}
		if contributors > 1 {
			inv := 1 / float64(contributors)
			for i := range col {
				col[i] *= inv
			}
		}
		out.Columns[ci] = col
	}
	return out
}

package series

// Merge combines several runs' series into one element-wise-mean series
// over their common interval prefix — the sweep-level view: the average
// per-interval trajectory across a sweep's cells. Column i of the result
// is the mean of column i of every input. Merge(nil...) and Merge()
// return an empty series.
func Merge(runs ...*Series) *Series {
	inputs := runs[:0:0]
	for _, s := range runs {
		if s != nil && s.Len() > 0 {
			inputs = append(inputs, s)
		}
	}
	if len(inputs) == 0 {
		return &Series{Meta: Meta{Version: Version}, Columns: catalog(nil)}
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
		},
		Columns: make([][]float64, NumMetrics),
	}
	for ci := range out.Columns {
		col := make([]float64, n)
		for _, s := range inputs {
			for i, v := range s.Columns[ci][:n] {
				col[i] += v
			}
		}
		if len(inputs) > 1 {
			inv := 1 / float64(len(inputs))
			for i := range col {
				col[i] *= inv
			}
		}
		out.Columns[ci] = col
	}
	return out
}

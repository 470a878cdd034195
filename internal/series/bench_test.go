package series

import (
	"context"
	"testing"

	"fdpsim/internal/sim"
)

// recordedSeries records seriesTestConfig's run: several hundred
// intervals of a chaserand FDP run with attribution, so the columns hold
// values that vary.
func recordedSeries(tb testing.TB) *Series {
	rec := &Recorder{}
	cfg := seriesTestConfig()
	cfg.Tracer = rec
	if _, err := sim.RunContext(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
	s := rec.Series()
	s.Meta.Workload, s.Meta.Prefetcher = cfg.Workload, "stream"
	return s
}

// BenchmarkSeriesCodec times Encode and Decode of one recorded stream.
func BenchmarkSeriesCodec(b *testing.B) {
	s := recordedSeries(b)
	enc, err := Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package trace

import (
	"bytes"
	"io"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

// benchOps is the stream both trace benchmarks time: four frames of
// codewalk (Nop runs between few loads) then four of chaserand (mostly
// dependent loads), the two ends of the Nop share among the builtin
// workloads that perfbench replays.
func benchOps(b *testing.B) []cpu.MicroOp {
	var ops []cpu.MicroOp
	for _, name := range []string{"codewalk", "chaserand"} {
		src, err := workload.New(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4*frameTargetOps; i++ {
			ops = append(ops, src.Next())
		}
	}
	return ops
}

// BenchmarkWriterV2 times WriterV2.Write per op into io.Discard; after
// the first frame the writer allocates nothing.
func BenchmarkWriterV2(b *testing.B) {
	ops := benchOps(b)
	w, err := NewWriterV2(io.Discard, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range ops[:frameTargetOps] {
		w.Write(op)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderV2 times ReaderV2.Next per op over the recorded stream,
// looping; after one pass the reader allocates nothing.
func BenchmarkReaderV2(b *testing.B) {
	ops := benchOps(b)
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "bench")
	for _, op := range ops {
		w.Write(op)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := NewReaderV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	r.SetLoop(true)
	for range ops {
		r.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Next().Addr
	}
	if r.Err() != nil {
		b.Fatal(r.Err())
	}
	benchSink = sink
}

var benchSink uint64

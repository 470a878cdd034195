package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

func roundTrip(t *testing.T, name string, ops []cpu.MicroOp) *ReaderV2 {
	t.Helper()
	r, err := NewReaderV2(bytes.NewReader(encodeV2(t, name, ops)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTripMixed(t *testing.T) {
	ops := []cpu.MicroOp{
		{Kind: cpu.Nop},
		{Kind: cpu.Nop},
		{Kind: cpu.Load, Addr: 4096, PC: 0x400000, Dep: 1},
		{Kind: cpu.Store, Addr: 64, PC: 0x400004},
		{Kind: cpu.Nop},
		{Kind: cpu.Load, Addr: 1 << 40, PC: 0x400008},
	}
	r := roundTrip(t, "mix", ops)
	if r.Name() != "mix" || r.Ops() != uint64(len(ops)) {
		t.Fatalf("name=%q ops=%d", r.Name(), r.Ops())
	}
	for i, want := range ops {
		if got := r.Next(); got != want {
			t.Fatalf("op %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestReaderPadsWithNops(t *testing.T) {
	r := roundTrip(t, "pad", []cpu.MicroOp{{Kind: cpu.Load, Addr: 64, PC: 1}})
	r.Next()
	if op := r.Next(); op.Kind != cpu.Nop {
		t.Fatalf("exhausted reader returned %+v", op)
	}
	if !r.Exhausted() {
		t.Fatal("Exhausted() false after running out")
	}
}

func TestReaderLoops(t *testing.T) {
	r := roundTrip(t, "loop", []cpu.MicroOp{
		{Kind: cpu.Load, Addr: 64, PC: 1},
		{Kind: cpu.Store, Addr: 128, PC: 2},
	})
	r.SetLoop(true)
	for i := 0; i < 7; i++ {
		r.Next()
	}
	if op := r.Next(); op.Kind != cpu.Store || op.Addr != 128 {
		t.Fatalf("looped op = %+v", op)
	}
	if r.Exhausted() {
		t.Fatal("looping reader reported exhaustion")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReaderV2(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	raw := encodeV2(t, "t", []cpu.MicroOp{{Kind: cpu.Load, Addr: 64, PC: 1}})
	if _, err := NewReaderV2(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "t")
	w.Close()
	if err := w.Write(cpu.MicroOp{}); err == nil {
		t.Fatal("write after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close errored: %v", err)
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	// Record a real workload prefix and verify bit-exact replay.
	src, _ := workload.New("spmv", 3)
	var ops []cpu.MicroOp
	for i := 0; i < 10000; i++ {
		ops = append(ops, src.Next())
	}
	r := roundTrip(t, "spmv", ops)
	for i, want := range ops {
		if got := r.Next(); got != want {
			t.Fatalf("spmv op %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestCompressionReasonable: records are run-length and delta encoded, so
// a run of non-memory ops costs one record per frame whatever its length,
// and a strided load stream costs a few bytes per load whether its
// addresses sit low or high in the address space.
func TestCompressionReasonable(t *testing.T) {
	const n = 100000
	if perOp := float64(len(encodeV2(t, "nops", make([]cpu.MicroOp, n)))) / n; perOp > 0.01 {
		t.Fatalf("Nop run: %.4f bytes/op, want < 0.01", perOp)
	}
	strided := func(base uint64) int {
		ops := make([]cpu.MicroOp, n)
		for i := range ops {
			ops[i] = cpu.MicroOp{Kind: cpu.Load, Addr: base + uint64(i)*64, PC: 0x400000}
		}
		return len(encodeV2(t, "strided", ops))
	}
	low, high := strided(0), strided(1<<40)
	if perOp := float64(high) / n; perOp > 6 {
		t.Fatalf("strided loads: %.2f bytes/op, want < 6", perOp)
	}
	if float64(high-low) > 0.01*float64(low) {
		t.Fatalf("strided loads at 1<<40 take %d bytes, at 0 %d: addresses are not delta encoded", high, low)
	}
}

// TestRoundTripProperty: arbitrary op sequences survive encoding.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var ops []cpu.MicroOp
		for _, r := range raw {
			op := cpu.MicroOp{}
			switch r % 3 {
			case 0:
				op.Kind = cpu.Nop
			case 1:
				op = cpu.MicroOp{Kind: cpu.Load, Addr: uint64(r) * 13, PC: uint64(r % 997), Dep: int(r % 5)}
			case 2:
				op = cpu.MicroOp{Kind: cpu.Store, Addr: uint64(r) * 7, PC: uint64(r % 31)}
			}
			ops = append(ops, op)
		}
		var buf bytes.Buffer
		w, err := NewWriterV2(&buf, "q")
		if err != nil {
			return false
		}
		for _, op := range ops {
			if w.Write(op) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		if w.Count() != uint64(len(ops)) {
			return false
		}
		r, err := NewReaderV2(bytes.NewReader(buf.Bytes()))
		if err != nil || r.Ops() != uint64(len(ops)) {
			return false
		}
		for _, want := range ops {
			if r.Next() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package trace

import (
	"bytes"
	"io"
	"testing"

	"fdpsim/internal/cpu"
)

// FuzzReaderV2 ensures the streaming v2 decoder never panics or
// over-allocates on arbitrary bytes: malformed frames must error. Both
// the seekable path (footer pre-read) and the plain-stream path run.
func FuzzReaderV2(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "seed")
	for i := 0; i < 3*frameTargetOps/2; i++ {
		switch i % 5 {
		case 0, 1:
			w.Write(cpu.MicroOp{Kind: cpu.Nop})
		case 2:
			w.Write(cpu.MicroOp{Kind: cpu.Load, Addr: uint64(i) * 64, PC: 0x400000, Dep: i % 3})
		case 3:
			w.Write(cpu.MicroOp{Kind: cpu.Store, Addr: uint64(i) * 128, PC: 0x400004})
		case 4:
			w.Write(cpu.MicroOp{Kind: cpu.Load, Addr: 1 << 40, PC: 0x400008})
		}
	}
	w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-footerLen]) // footer sheared off
	f.Add([]byte{})
	f.Add([]byte("FDPTRC\x00\x02"))
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 40 {
		mutated[40] ^= 0xFF // corrupt a payload byte: CRC must catch it
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seekable := range []bool{true, false} {
			var in io.Reader = bytes.NewReader(data)
			if !seekable {
				in = io.MultiReader(in)
			}
			r, err := NewReaderV2(in)
			if err != nil {
				continue // rejected: fine
			}
			// Accepted traces must be safely drainable with bounded
			// memory, whatever the frame headers claim.
			for i := 0; i < 2*frameTargetOps && !r.Exhausted(); i++ {
				op := r.Next()
				if op.Kind != cpu.Nop && op.Kind != cpu.Load && op.Kind != cpu.Store {
					t.Fatalf("decoded invalid op kind %d", op.Kind)
				}
				if cap(r.ops) > maxFrameOps || cap(r.payload) > maxFramePayload {
					t.Fatalf("decoder over-allocated: ops cap %d, payload cap %d", cap(r.ops), cap(r.payload))
				}
			}
		}
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// refEncodeV2 is a second v2 encoder that shares nothing with WriterV2
// but the format's constants: it writes each varint through bytes.Buffer
// and writes the pending Nop run before each memory op and at each frame
// end. FuzzWriterV2 holds WriterV2's output to its bytes.
func refEncodeV2(name string, ops []cpu.MicroOp) []byte {
	uv := func(b *bytes.Buffer, v uint64) {
		var s [binary.MaxVarintLen64]byte
		b.Write(s[:binary.PutUvarint(s[:], v)])
	}
	sv := func(b *bytes.Buffer, v int64) {
		var s [binary.MaxVarintLen64]byte
		b.Write(s[:binary.PutVarint(s[:], v)])
	}
	var out, frame bytes.Buffer
	out.Write(magicV2[:])
	uv(&out, uint64(len(name)))
	out.WriteString(name)
	var nops, frameOps uint64
	var lastAddr, lastPC int64
	flushNops := func() {
		if nops > 0 {
			uv(&frame, tagNops)
			uv(&frame, nops)
			nops = 0
		}
	}
	flushFrame := func() {
		if frameOps == 0 {
			return
		}
		flushNops()
		uv(&out, uint64(frame.Len()))
		uv(&out, frameOps)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(frame.Bytes()))
		out.Write(crc[:])
		out.Write(frame.Bytes())
		frame.Reset()
		frameOps, lastAddr, lastPC = 0, 0, 0
	}
	for _, op := range ops {
		frameOps++
		if op.Kind == cpu.Nop {
			nops++
		} else {
			flushNops()
			tag := uint64(tagLoad)
			if op.Kind == cpu.Store {
				tag = tagStore
			}
			uv(&frame, tag)
			sv(&frame, int64(op.Addr)-lastAddr)
			sv(&frame, int64(op.PC)-lastPC)
			if op.Kind == cpu.Load {
				uv(&frame, uint64(op.Dep))
			}
			lastAddr, lastPC = int64(op.Addr), int64(op.PC)
		}
		if frameOps >= frameTargetOps {
			flushFrame()
		}
	}
	flushFrame()
	uv(&out, 0)
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(len(ops)))
	copy(footer[8:], endMagicV2[:])
	out.Write(footer[:])
	return out.Bytes()
}

// fuzzOps decodes a micro-op stream from fuzz bytes, at most maxOps ops.
// Each op starts with a control byte c. c&3 picks a Nop, a Nop run of
// 64×(1+next byte) ops (up to two frames, so runs cross the frame
// boundary), a Load or a Store. A memory op takes its address and its PC
// either as 8 raw bytes (c&4, c&8: deltas anywhere in the int64 range)
// or as a small step from the last ones; a Load takes its Dep as 8 raw
// bytes (c&16) or as c>>5. Missing bytes read as zero.
func fuzzOps(data []byte, maxOps int) []cpu.MicroOp {
	next := func(n int) uint64 {
		var b [8]byte
		n = copy(b[:n], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(b[:])
	}
	var ops []cpu.MicroOp
	var addr, pc uint64
	for len(data) > 0 && len(ops) < maxOps {
		c := next(1)
		switch c & 3 {
		case 0:
			ops = append(ops, cpu.MicroOp{Kind: cpu.Nop})
		case 1:
			for n := 64 * (1 + next(1)); n > 0 && len(ops) < maxOps; n-- {
				ops = append(ops, cpu.MicroOp{Kind: cpu.Nop})
			}
		default:
			if c&4 != 0 {
				addr = next(8)
			} else {
				addr += 64 * next(1)
			}
			if c&8 != 0 {
				pc = next(8)
			} else {
				pc += 4 * next(1)
			}
			op := cpu.MicroOp{Kind: cpu.Store, Addr: addr, PC: pc}
			if c&3 == 2 {
				op.Kind = cpu.Load
				op.Dep = int(c >> 5)
				if c&16 != 0 {
					op.Dep = int(next(8))
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// readsBack fails unless r yields ops and then pads with a Nop at a
// clean end, or, looping, yields ops three times over and goes on.
func readsBack(t *testing.T, how string, r *ReaderV2, ops []cpu.MicroOp, loop bool) {
	t.Helper()
	passes := 1
	if loop {
		passes = 3
	}
	for pass := 0; pass < passes; pass++ {
		for i, want := range ops {
			if got := r.Next(); got != want {
				t.Fatalf("%s: pass %d op %d = %+v, want %+v (err %v)", how, pass, i, got, want, r.Err())
			}
		}
	}
	if loop {
		if r.Exhausted() || r.Err() != nil {
			t.Fatalf("%s: looping reader ended (err %v)", how, r.Err())
		}
		return
	}
	if op := r.Next(); op != (cpu.MicroOp{Kind: cpu.Nop}) || !r.Exhausted() || r.Err() != nil {
		t.Fatalf("%s: after the recording got %+v, exhausted %v, err %v", how, op, r.Exhausted(), r.Err())
	}
	if r.Ops() != uint64(len(ops)) {
		t.Fatalf("%s: Ops() = %d, want %d", how, r.Ops(), len(ops))
	}
}

// FuzzWriterV2 holds the encoder to refEncodeV2 byte for byte over every
// op stream, and requires the stream to read back op for op: seekable,
// as a plain stream, and, with a Nop run appended, across SetLoop
// rewinds.
func FuzzWriterV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 3, 2, 0, 0, 3, 2})
	f.Add([]byte{1, 127, 2, 5, 1, 255, 3, 0, 1, 255, 1, 255})
	f.Add([]byte{2 | 4 | 8 | 16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3 | 4 | 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data, 4*frameTargetOps)
		raw := encodeV2(t, "fuzz", ops)
		if want := refEncodeV2("fuzz", ops); !bytes.Equal(raw, want) {
			t.Fatalf("%d ops: WriterV2 wrote %d bytes unlike the reference encoder's %d", len(ops), len(raw), len(want))
		}

		r, err := NewReaderV2(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		readsBack(t, "seekable", r, ops, false)
		if r, err = NewReaderV2(io.MultiReader(bytes.NewReader(raw))); err != nil {
			t.Fatal(err)
		}
		readsBack(t, "stream", r, ops, false)

		looped := append(ops[:len(ops):len(ops)], make([]cpu.MicroOp, 1+len(data)%(2*frameTargetOps))...)
		if r, err = NewReaderV2(bytes.NewReader(encodeV2(t, "loop", looped))); err != nil {
			t.Fatal(err)
		}
		r.SetLoop(true)
		readsBack(t, "loop", r, looped, true)
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

func encodeV2(t *testing.T, name string, ops []cpu.MicroOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(ops)) {
		t.Fatalf("Count() = %d, want %d", w.Count(), len(ops))
	}
	return buf.Bytes()
}

func sampleOps(n int) []cpu.MicroOp {
	src, _ := workload.New("mixedphase", 11)
	ops := make([]cpu.MicroOp, n)
	for i := range ops {
		ops[i] = src.Next()
	}
	return ops
}

// TestV2RoundTrip: encode → decode → encode must reproduce both the op
// stream and the exact file bytes (the encoder is deterministic).
func TestV2RoundTrip(t *testing.T) {
	// Long enough to span several frames.
	ops := sampleOps(3*frameTargetOps + 1234)
	raw := encodeV2(t, "mixedphase", ops)

	r, err := NewReaderV2(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "mixedphase" {
		t.Fatalf("Name() = %q", r.Name())
	}
	if r.Ops() != uint64(len(ops)) {
		t.Fatalf("Ops() = %d, want %d", r.Ops(), len(ops))
	}
	decoded := make([]cpu.MicroOp, len(ops))
	for i := range decoded {
		decoded[i] = r.Next()
	}
	for i, want := range ops {
		if decoded[i] != want {
			t.Fatalf("op %d = %+v, want %+v", i, decoded[i], want)
		}
	}
	if r.Exhausted() {
		t.Fatal("reader exhausted before the padding Nop")
	}
	if op := r.Next(); op.Kind != cpu.Nop || !r.Exhausted() {
		t.Fatalf("expected Nop padding + exhaustion, got %+v exhausted=%v", op, r.Exhausted())
	}
	if r.Err() != nil {
		t.Fatalf("clean trace reported error: %v", r.Err())
	}

	// Re-encode the decoded stream: byte-identical file.
	raw2 := encodeV2(t, "mixedphase", decoded)
	if !bytes.Equal(raw, raw2) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
}

// TestV2Streaming: decoding through a plain (non-seekable) reader works
// and learns the op count at exhaustion.
func TestV2Streaming(t *testing.T) {
	ops := sampleOps(2 * frameTargetOps)
	raw := encodeV2(t, "s", ops)
	r, err := NewReaderV2(io.MultiReader(bytes.NewReader(raw))) // hides Seeker
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops() != 0 {
		t.Fatalf("non-seekable Ops() = %d before exhaustion, want 0", r.Ops())
	}
	for i, want := range ops {
		if got := r.Next(); got != want {
			t.Fatalf("op %d = %+v, want %+v", i, got, want)
		}
	}
	r.Next() // pad
	if r.Ops() != uint64(len(ops)) {
		t.Fatalf("Ops() after exhaustion = %d, want %d", r.Ops(), len(ops))
	}
}

// TestV2Loop: a looping seekable reader replays the recording
// identically, frame boundaries included.
func TestV2Loop(t *testing.T) {
	ops := sampleOps(frameTargetOps + 100) // two frames
	raw := encodeV2(t, "l", ops)
	r, err := NewReaderV2(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoop(true)
	for pass := 0; pass < 3; pass++ {
		for i, want := range ops {
			if got := r.Next(); got != want {
				t.Fatalf("pass %d op %d = %+v, want %+v", pass, i, got, want)
			}
		}
	}
	if r.Exhausted() {
		t.Fatal("looping reader reported exhaustion")
	}
}

// TestV2EmptyTrace: a zero-op trace is valid and ends immediately, even
// with Loop set.
func TestV2EmptyTrace(t *testing.T) {
	raw := encodeV2(t, "empty", nil)
	r, err := NewReaderV2(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoop(true)
	if op := r.Next(); op.Kind != cpu.Nop || !r.Exhausted() {
		t.Fatalf("empty trace: got %+v exhausted=%v", op, r.Exhausted())
	}
}

// TestV2CorruptionDetected: flipping any payload byte must surface as a
// CRC error, not silent corruption.
func TestV2CorruptionDetected(t *testing.T) {
	ops := sampleOps(500)
	raw := encodeV2(t, "c", ops)
	// Flip a byte inside the first frame payload (past header+frame header).
	mutated := append([]byte(nil), raw...)
	mutated[len(mutated)/2] ^= 0x40
	r, err := NewReaderV2(bytes.NewReader(mutated))
	if err != nil {
		return // header-level rejection also counts
	}
	for i := 0; i < len(ops)+4 && !r.Exhausted(); i++ {
		r.Next()
	}
	if r.Err() == nil {
		// The flipped byte might land in the untouched second half ops; be
		// strict anyway: a full drain of a mutated payload must either
		// error or still match where untouched.
		t.Fatal("corrupted frame decoded without error")
	}
}

// TestV2TruncatedRejected: cutting the file off loses the footer, which a
// seekable open detects up front.
func TestV2TruncatedRejected(t *testing.T) {
	raw := encodeV2(t, "t", sampleOps(100))
	if _, err := NewReaderV2(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated v2 trace accepted via seekable open")
	}
	// Non-seekable: the truncation surfaces as a decode error mid-stream.
	r, err := NewReaderV2(io.MultiReader(bytes.NewReader(raw[:len(raw)-footerLen-1])))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !r.Exhausted(); i++ {
		r.Next()
	}
	if r.Err() == nil {
		t.Fatal("truncated stream drained without error")
	}
}

// TestV2CompressionReasonable: the framing overhead stays small — a
// streaming workload still encodes well under 4 bytes per op.
func TestV2CompressionReasonable(t *testing.T) {
	src, _ := workload.New("seqstream", 1)
	var buf bytes.Buffer
	w, _ := NewWriterV2(&buf, "seqstream")
	const n = 100000
	for i := 0; i < n; i++ {
		w.Write(src.Next())
	}
	w.Close()
	if perOp := float64(buf.Len()) / n; perOp > 4 {
		t.Fatalf("%.2f bytes/op, want < 4", perOp)
	}
}

// TestOpenSniffsVersions: Open dispatches on the version byte — a v2
// trace opens, a retired v1 trace is named by ErrFormatV1, and anything
// else is rejected.
func TestOpenSniffsVersions(t *testing.T) {
	ops := sampleOps(64)
	r, err := Open(bytes.NewReader(encodeV2(t, "w", ops)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "w" || r.Ops() != uint64(len(ops)) {
		t.Fatalf("Open: name=%q ops=%d", r.Name(), r.Ops())
	}
	for i, want := range ops {
		if got := r.Next(); got != want {
			t.Fatalf("op %d = %+v, want %+v", i, got, want)
		}
	}

	// A v1 header: magic, then the name "w" and a Nop run.
	v1 := append(magicV1[:], 1, 'w', tagNops, 3)
	if _, err := Open(bytes.NewReader(v1)); !errors.Is(err, ErrFormatV1) {
		t.Fatalf("Open(v1) = %v, want ErrFormatV1", err)
	}
	if _, err := Open(bytes.NewReader([]byte("garbage bytes here"))); err == nil || errors.Is(err, ErrFormatV1) {
		t.Fatalf("Open(garbage) = %v, want a bad-magic error", err)
	}
}

// TestV2BoundedMemory: the reader's working set is one frame, not the
// whole trace — a multi-frame decode must never grow the ops buffer past
// the frame cap.
func TestV2BoundedMemory(t *testing.T) {
	raw := encodeV2(t, "m", sampleOps(10*frameTargetOps))
	r, err := NewReaderV2(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for !r.Exhausted() {
		r.Next()
		if cap(r.ops) > maxFrameOps {
			t.Fatalf("ops buffer grew to %d (> %d): not streaming", cap(r.ops), maxFrameOps)
		}
	}
}

// TestV2FooterLayout pins the footer wire format: 8-byte LE count then
// the end magic, as documented in docs/WORKLOADS.md.
func TestV2FooterLayout(t *testing.T) {
	raw := encodeV2(t, "f", sampleOps(7))
	footer := raw[len(raw)-footerLen:]
	if got := binary.LittleEndian.Uint64(footer[:8]); got != 7 {
		t.Fatalf("footer count = %d, want 7", got)
	}
	if !bytes.Equal(footer[8:], endMagicV2[:]) {
		t.Fatal("footer end magic mismatch")
	}
}

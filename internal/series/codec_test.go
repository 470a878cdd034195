package series

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// sampleSeries builds a small but fully-populated series covering both
// column kinds, negative values, and non-trivial float drift.
func sampleSeries(n int) *Series {
	s := &Series{
		Meta: Meta{
			Version:    Version,
			Workload:   "chaserand",
			Prefetcher: "stream",
			Controller: "fdp",
			Intervals:  n,
			Metrics:    make([]string, NumMetrics),
		},
		Columns: make([][]float64, NumMetrics),
	}
	for i, m := range Catalog {
		s.Meta.Metrics[i] = m.Name
		col := make([]float64, n)
		for j := range col {
			if m.Kind == KindInt {
				// Include negatives (insertion_pos can be -1).
				col[j] = float64((j*7+i)%11 - 1)
			} else {
				col[j] = math.Sin(float64(j)*0.3+float64(i)) * 1.5
			}
		}
		s.Columns[i] = col
	}
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 257} {
		s := sampleSeries(n)
		enc, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode(n=%d): %v", n, err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(n=%d): %v", n, err)
		}
		if !reflect.DeepEqual(got.Meta, s.Meta) {
			t.Errorf("n=%d meta mismatch:\ngot  %+v\nwant %+v", n, got.Meta, s.Meta)
		}
		if !reflect.DeepEqual(got.Columns, s.Columns) {
			t.Errorf("n=%d columns mismatch", n)
		}
	}
}

func TestCodecDeterministic(t *testing.T) {
	s := sampleSeries(64)
	a, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodes of the same series differ")
	}
}

func TestEncodeRejectsRaggedColumns(t *testing.T) {
	s := sampleSeries(4)
	s.Columns[3] = s.Columns[3][:2]
	if _, err := Encode(s); err == nil {
		t.Error("Encode accepted a short column")
	}
	s = sampleSeries(4)
	s.Columns = s.Columns[:NumMetrics-1]
	if _, err := Encode(s); err == nil {
		t.Error("Encode accepted a metrics/columns width mismatch")
	}
}

// TestDecodeTruncation chops the document at every length: every prefix
// must fail cleanly with ErrCorrupt (a torn sidecar is never accepted).
func TestDecodeTruncation(t *testing.T) {
	enc, err := Encode(sampleSeries(16))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted a %d/%d-byte prefix", cut, len(enc))
		} else if !errors.Is(err, ErrCorrupt) && cut >= len(magic)+footerLen {
			// Very short prefixes also wrap ErrCorrupt; version skew is the
			// only non-corrupt failure and truncation cannot produce it
			// before the meta frame parses.
			t.Fatalf("cut %d: error does not wrap ErrCorrupt: %v", cut, err)
		}
	}
}

// TestDecodeBitFlips flips every bit of the document: no flip may be
// silently accepted as the original, and none may panic. (Almost all are
// caught by the CRC frames, the magic, or the footer; a flip inside the
// meta JSON that survives parsing may legally decode to different meta.)
func TestDecodeBitFlips(t *testing.T) {
	orig := sampleSeries(8)
	enc, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			got, err := Decode(mut)
			if err != nil {
				continue
			}
			if reflect.DeepEqual(got.Meta, orig.Meta) && reflect.DeepEqual(got.Columns, orig.Columns) {
				t.Fatalf("flip byte %d bit %d: decode silently returned the original", i, bit)
			}
		}
	}
}

// TestDecodeVersionSkew patches the meta frame to a future version (and
// repairs its CRC): the decoder must refuse it with a version error, not
// a corruption error — the store leaves such sidecars on disk.
func TestDecodeVersionSkew(t *testing.T) {
	enc, err := Encode(sampleSeries(2))
	if err != nil {
		t.Fatal(err)
	}
	body := enc[len(magic):]
	size, n := binary.Uvarint(body)
	payload := append([]byte(nil), body[n+4:n+4+int(size)]...)
	patched := bytes.Replace(payload, []byte(`"version":1`), []byte(`"version":9`), 1)
	if bytes.Equal(patched, payload) {
		t.Fatal("version field not found in meta payload")
	}
	mut := append([]byte(nil), enc[:len(magic)+n]...)
	mut = binary.LittleEndian.AppendUint32(mut, crc32.ChecksumIEEE(patched))
	mut = append(mut, patched...)
	mut = append(mut, body[n+4+int(size):]...)
	_, err = Decode(mut)
	if err == nil {
		t.Fatal("Decode accepted a future version")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version skew reported as corruption: %v", err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip: %d -> %d", v, got)
		}
	}
}

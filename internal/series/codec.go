package series

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary layout of a .series.bin document (all integers little-endian):
//
//	magic    8 bytes  "FDPSERS1"
//	frames   repeated:
//	           uvarint payload length (>= 1)
//	           uint32  CRC-32 (IEEE) of the payload
//	           payload bytes
//	         frame 0: Meta as JSON
//	         frames 1..K: one column each, in Meta.Metrics order:
//	           byte    kind (0 = int, 1 = float)
//	           uvarint value count (== Meta.Intervals)
//	           values  int:   zigzag(v[i] - v[i-1]) uvarints
//	                   float: uvarint(bits(v[i]) XOR bits(v[i-1]))
//	uvarint  0 (frame terminator)
//	footer   uint32 column count K, uint32 interval count
//
// Delta/XOR predecessors start at zero. Encoding is fully deterministic —
// no timestamps, no map iteration — so identical columns byte-compare
// equal, which the determinism tests rely on.

// Version is the document format Encode writes and Decode accepts. The
// result store names it in a stored document's header, so a document of
// another version is told apart without decoding it.
const Version = 1

const (
	magic     = "FDPSERS1"
	footerLen = 8

	kindByteInt   = 0
	kindByteFloat = 1
)

// ErrCorrupt is wrapped by every Decode failure but an unsupported
// version, so a caller can tell a damaged document from one another
// codec version wrote.
var ErrCorrupt = errors.New("series: corrupt document")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Encode serialises a Series into the framed binary document.
func Encode(s *Series) ([]byte, error) {
	if len(s.Meta.Metrics) != len(s.Columns) {
		return nil, fmt.Errorf("series: %d metrics but %d columns", len(s.Meta.Metrics), len(s.Columns))
	}
	for i, col := range s.Columns {
		if len(col) != s.Meta.Intervals {
			return nil, fmt.Errorf("series: column %q has %d values, want %d", s.Meta.Metrics[i], len(col), s.Meta.Intervals)
		}
	}
	meta := s.Meta
	meta.Version = Version
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(metaJSON)+s.Meta.Intervals*len(s.Columns)*2+64)
	out = append(out, magic...)
	out = appendFrame(out, metaJSON)

	var scratch []byte
	for i, col := range s.Columns {
		scratch = encodeColumn(scratch[:0], kindFor(s.Meta.Metrics[i]), col)
		out = appendFrame(out, scratch)
	}

	out = binary.AppendUvarint(out, 0) // terminator
	var foot [footerLen]byte
	binary.LittleEndian.PutUint32(foot[0:4], uint32(len(s.Columns)))
	binary.LittleEndian.PutUint32(foot[4:8], uint32(s.Meta.Intervals))
	out = append(out, foot[:]...)
	return out, nil
}

// kindFor resolves a column's encoding kind: catalog metrics use their
// declared kind, unknown names (future catalogs) fall back to float.
func kindFor(name string) Kind {
	if i := MetricIndex(name); i >= 0 {
		return Catalog[i].Kind
	}
	return KindFloat
}

func appendFrame(out, payload []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func encodeColumn(out []byte, kind Kind, col []float64) []byte {
	switch kind {
	case KindInt:
		out = append(out, kindByteInt)
	default:
		out = append(out, kindByteFloat)
	}
	out = binary.AppendUvarint(out, uint64(len(col)))
	if kind == KindInt {
		prev := int64(0)
		for _, v := range col {
			cur := int64(v)
			out = binary.AppendUvarint(out, zigzag(cur-prev))
			prev = cur
		}
		return out
	}
	prev := uint64(0)
	for _, v := range col {
		bits := math.Float64bits(v)
		out = binary.AppendUvarint(out, bits^prev)
		prev = bits
	}
	return out
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decode parses a framed document back into a Series. It is strict —
// truncation, bit damage, count mismatches, and trailing garbage all
// return an error wrapping ErrCorrupt — and never panics on arbitrary
// input (FuzzDecode's contract).
func Decode(data []byte) (*Series, error) {
	if len(data) < len(magic)+footerLen {
		return nil, corruptf("short document (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, corruptf("bad magic")
	}
	foot := data[len(data)-footerLen:]
	footCols := int(binary.LittleEndian.Uint32(foot[0:4]))
	footIntervals := int(binary.LittleEndian.Uint32(foot[4:8]))
	body := data[len(magic) : len(data)-footerLen]

	metaPayload, rest, err := readFrame(body)
	if err != nil {
		return nil, fmt.Errorf("meta frame: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaPayload, &meta); err != nil {
		return nil, corruptf("meta json: %v", err)
	}
	if meta.Version != Version {
		return nil, fmt.Errorf("series: unsupported version %d (want %d)", meta.Version, Version)
	}
	if meta.Intervals < 0 || meta.Intervals != footIntervals {
		return nil, corruptf("interval count mismatch: meta %d, footer %d", meta.Intervals, footIntervals)
	}
	if len(meta.Metrics) != footCols {
		return nil, corruptf("column count mismatch: meta %d, footer %d", len(meta.Metrics), footCols)
	}

	cols := make([][]float64, len(meta.Metrics))
	for i := range meta.Metrics {
		payload, r, err := readFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		rest = r
		col, err := decodeColumn(payload, meta.Intervals)
		if err != nil {
			return nil, fmt.Errorf("column %d (%s): %w", i, meta.Metrics[i], err)
		}
		cols[i] = col
	}

	term, n := binary.Uvarint(rest)
	if n <= 0 || term != 0 {
		return nil, corruptf("missing frame terminator")
	}
	if len(rest[n:]) != 0 {
		return nil, corruptf("%d trailing bytes", len(rest[n:]))
	}
	return &Series{Meta: meta, Columns: cols}, nil
}

// readFrame pops one length+CRC+payload frame off the front of b.
func readFrame(b []byte) (payload, rest []byte, err error) {
	size, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, corruptf("bad frame length")
	}
	if size == 0 {
		return nil, nil, corruptf("unexpected terminator")
	}
	b = b[n:]
	if len(b) < 4 {
		return nil, nil, corruptf("truncated frame header")
	}
	want := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < size {
		return nil, nil, corruptf("truncated frame payload (want %d, have %d)", size, len(b))
	}
	payload = b[:size]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, nil, corruptf("frame CRC mismatch")
	}
	return payload, b[size:], nil
}

func decodeColumn(payload []byte, intervals int) ([]float64, error) {
	if len(payload) < 1 {
		return nil, corruptf("empty column payload")
	}
	kind := payload[0]
	if kind != kindByteInt && kind != kindByteFloat {
		return nil, corruptf("unknown column kind %d", kind)
	}
	b := payload[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, corruptf("bad value count")
	}
	b = b[n:]
	if count != uint64(intervals) {
		return nil, corruptf("value count %d, want %d", count, intervals)
	}
	// Each value takes at least one byte, so the payload bounds the count;
	// this keeps a forged header from driving a huge allocation.
	if count > uint64(len(b)) {
		return nil, corruptf("value count %d exceeds payload", count)
	}
	col := make([]float64, count)
	if kind == kindByteInt {
		prev := int64(0)
		for i := range col {
			u, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, corruptf("truncated int value %d", i)
			}
			b = b[n:]
			prev += unzigzag(u)
			col[i] = float64(prev)
		}
	} else {
		prev := uint64(0)
		for i := range col {
			u, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, corruptf("truncated float value %d", i)
			}
			b = b[n:]
			prev ^= u
			col[i] = math.Float64frombits(prev)
		}
	}
	if len(b) != 0 {
		return nil, corruptf("%d trailing column bytes", len(b))
	}
	return col, nil
}

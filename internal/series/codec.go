package series

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"unsafe"

	"fdpsim/internal/sim"
)

// Binary layout of a .series.bin document (all integers little-endian):
//
//	magic    8 bytes  "FDPSERS1"
//	frames   repeated:
//	           uvarint payload length (>= 1)
//	           uint32  CRC-32 (IEEE) of the payload
//	           payload bytes
//	         frame 0: header JSON: Meta plus the string table
//	         frames 1..K: one column per sim.DecisionEvent field, in
//	           declaration order with nested structs flattened:
//	           byte    kind (0 = int, 1 = float)
//	           uvarint value count (== Meta.Intervals)
//	           values  int:   zigzag(v[i] - v[i-1]) uvarints
//	                   float: uvarint(bits(v[i]) XOR bits(v[i-1]))
//	uvarint  0 (frame terminator)
//	footer   uint32 column count K, uint32 interval count
//
// Integer fields are int columns, differenced in 64-bit wrapping
// arithmetic so every value round-trips exactly; bools are int columns of
// 0 and 1; strings are int columns of indexes into the string table.
// Delta/XOR predecessors start at zero. Encoding is fully deterministic —
// no timestamps, no map iteration — so identical streams byte-compare
// equal, which the determinism tests rely on.

// Version is the document format Encode writes and Decode accepts:
// version 2 stores every DecisionEvent field (version 1 stored the
// catalog columns). The result store names it in a stored document's
// header, so a document of another version is told apart without
// decoding it.
const Version = 2

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

// header is the document's first frame.
type header struct {
	Meta
	Strings []string `json:"strings,omitempty"`
}

// column is one DecisionEvent field: its JSON path, its byte offset in
// the struct and its Go kind.
type column struct {
	name   string
	offset uintptr
	kind   reflect.Kind
}

// columns is the document's column order. A change to DecisionEvent's
// fields changes the format, so it needs a new Version
// (TestColumnLayout pins this one's).
var columns = flatten(reflect.TypeOf(sim.DecisionEvent{}), "", 0)

func flatten(t reflect.Type, prefix string, offset uintptr) []column {
	var out []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		name := prefix + tag
		switch k := f.Type.Kind(); k {
		case reflect.Struct:
			out = append(out, flatten(f.Type, name+".", offset+f.Offset)...)
		case reflect.Int, reflect.Uint64, reflect.Float64, reflect.Bool, reflect.String:
			out = append(out, column{name: name, offset: offset + f.Offset, kind: k})
		default:
			panic("series: DecisionEvent field " + name + " has no column encoding")
		}
	}
	return out
}

func (c *column) kindByte() byte {
	if c.kind == reflect.Float64 {
		return kindByteFloat
	}
	return kindByteInt
}

// value returns the column's field of ev: a string column's string, or
// any other column's value as the 64 bits it stores.
func (c *column) value(ev *sim.DecisionEvent) (uint64, string) {
	p := unsafe.Add(unsafe.Pointer(ev), c.offset)
	switch c.kind {
	case reflect.Int:
		return uint64(*(*int)(p)), ""
	case reflect.Uint64:
		return *(*uint64)(p), ""
	case reflect.Float64:
		return math.Float64bits(*(*float64)(p)), ""
	case reflect.Bool:
		if *(*bool)(p) {
			return 1, ""
		}
		return 0, ""
	}
	return 0, *(*string)(p)
}

// set stores u in the column's field of ev; a string column stores
// strs[u].
func (c *column) set(ev *sim.DecisionEvent, u uint64, strs []string) error {
	p := unsafe.Add(unsafe.Pointer(ev), c.offset)
	switch c.kind {
	case reflect.Int:
		*(*int)(p) = int(u)
	case reflect.Uint64:
		*(*uint64)(p) = u
	case reflect.Float64:
		*(*float64)(p) = math.Float64frombits(u)
	case reflect.Bool:
		if u > 1 {
			return corruptf("bool value %d", u)
		}
		*(*bool)(p) = u == 1
	case reflect.String:
		if u >= uint64(len(strs)) {
			return corruptf("string index %d of %d", u, len(strs))
		}
		*(*string)(p) = strs[u]
	}
	return nil
}

// Encode serialises a Series' events into the framed binary document;
// the catalog columns are not stored.
func Encode(s *Series) ([]byte, error) {
	if len(s.Events) != s.Meta.Intervals {
		return nil, fmt.Errorf("series: %d events for %d intervals", len(s.Events), s.Meta.Intervals)
	}
	// The string table, in first-seen order.
	h := header{Meta: s.Meta}
	h.Version = Version
	var index map[string]uint64
	for k := range s.Events {
		for i := range columns {
			if c := &columns[i]; c.kind == reflect.String {
				_, str := c.value(&s.Events[k])
				if _, ok := index[str]; !ok {
					if index == nil {
						index = make(map[string]uint64)
					}
					index[str] = uint64(len(h.Strings))
					h.Strings = append(h.Strings, str)
				}
			}
		}
	}
	headJSON, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(headJSON)+len(s.Events)*len(columns)*2+len(columns)*8+32)
	out = append(out, magic...)
	out = appendFrame(out, headJSON)

	var scratch []byte
	for i := range columns {
		c := &columns[i]
		kind := c.kindByte()
		scratch = append(scratch[:0], kind)
		scratch = binary.AppendUvarint(scratch, uint64(len(s.Events)))
		prev := uint64(0)
		for k := range s.Events {
			u, str := c.value(&s.Events[k])
			if c.kind == reflect.String {
				u = index[str]
			}
			if kind == kindByteFloat {
				scratch = binary.AppendUvarint(scratch, u^prev)
			} else {
				scratch = binary.AppendUvarint(scratch, zigzag(int64(u-prev)))
			}
			prev = u
		}
		out = appendFrame(out, scratch)
	}

	out = binary.AppendUvarint(out, 0) // terminator
	var foot [footerLen]byte
	binary.LittleEndian.PutUint32(foot[0:4], uint32(len(columns)))
	binary.LittleEndian.PutUint32(foot[4:8], uint32(s.Meta.Intervals))
	out = append(out, foot[:]...)
	return out, nil
}

func appendFrame(out, payload []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decode parses a framed document back into its events and computes the
// catalog from them. It is strict — truncation, bit damage, count
// mismatches, out-of-range values and trailing garbage all return an
// error wrapping ErrCorrupt — and never panics on arbitrary input
// (FuzzDecode's contract).
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

	headPayload, rest, err := readFrame(body)
	if err != nil {
		return nil, fmt.Errorf("header frame: %w", err)
	}
	var h header
	if err := json.Unmarshal(headPayload, &h); err != nil {
		return nil, corruptf("header json: %v", err)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("series: unsupported version %d (want %d)", h.Version, Version)
	}
	if h.Intervals < 0 || h.Intervals != footIntervals {
		return nil, corruptf("interval count mismatch: header %d, footer %d", h.Intervals, footIntervals)
	}
	if footCols != len(columns) {
		return nil, corruptf("column count %d, want %d", footCols, len(columns))
	}
	// Each value takes at least one byte, so the payload bounds the event
	// count; this keeps a forged header from driving a huge allocation.
	if uint64(h.Intervals)*uint64(len(columns)) > uint64(len(rest)) {
		return nil, corruptf("%d intervals exceed the payload", h.Intervals)
	}

	events := make([]sim.DecisionEvent, h.Intervals)
	for i := range columns {
		payload, r, err := readFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		rest = r
		if err := decodeColumn(payload, &columns[i], events, h.Strings); err != nil {
			return nil, fmt.Errorf("column %d (%s): %w", i, columns[i].name, err)
		}
	}

	term, n := binary.Uvarint(rest)
	if n <= 0 || term != 0 {
		return nil, corruptf("missing frame terminator")
	}
	if len(rest[n:]) != 0 {
		return nil, corruptf("%d trailing bytes", len(rest[n:]))
	}
	return newSeries(h.Meta, events), nil
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

// decodeColumn fills column c of every event from one column frame.
func decodeColumn(payload []byte, c *column, events []sim.DecisionEvent, strs []string) error {
	if len(payload) < 1 {
		return corruptf("empty column payload")
	}
	kind := payload[0]
	if kind != c.kindByte() {
		return corruptf("column kind %d, want %d", kind, c.kindByte())
	}
	b := payload[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return corruptf("bad value count")
	}
	b = b[n:]
	if count != uint64(len(events)) {
		return corruptf("value count %d, want %d", count, len(events))
	}
	prev := uint64(0)
	for k := range events {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return corruptf("truncated value %d", k)
		}
		b = b[n:]
		if kind == kindByteFloat {
			prev ^= u
		} else {
			prev += uint64(unzigzag(u))
		}
		if err := c.set(&events[k], prev, strs); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return corruptf("%d trailing column bytes", len(b))
	}
	return nil
}

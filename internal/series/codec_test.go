package series

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"fdpsim/internal/sim"
)

// fill sets every leaf field of v from the event index k and the field's
// position i: negative and near-maximal integers, drifting floats with a
// negative zero and a subnormal, alternating bools and a small string
// pool, so a codec that drops or mangles any field fails a round trip.
func fill(v reflect.Value, k int, i *int) {
	for f := 0; f < v.NumField(); f++ {
		fv := v.Field(f)
		*i++
		switch fv.Kind() {
		case reflect.Struct:
			fill(fv, k, i)
		case reflect.Int:
			fv.SetInt(int64((k*7+*i)%11 - 1))
		case reflect.Uint64:
			u := uint64(k*13 + *i)
			if *i%5 == 0 {
				u = math.MaxUint64 - u
			}
			fv.SetUint(u)
		case reflect.Float64:
			x := math.Sin(float64(k)*0.3+float64(*i)) * 1.5
			switch (k + *i) % 17 {
			case 3:
				x = math.SmallestNonzeroFloat64
			case 5:
				x = math.Copysign(0, -1)
			}
			fv.SetFloat(x)
		case reflect.Bool:
			fv.SetBool((k+*i)%2 == 0)
		case reflect.String:
			fv.SetString([]string{"fdp", "Low", "row 4: hold", "LRU-4", "ü\x01\""}[(k+*i)%5])
		}
	}
}

// sampleSeries builds a series of n events with every field populated.
func sampleSeries(n int) *Series {
	events := make([]sim.DecisionEvent, n)
	for k := range events {
		i := 0
		fill(reflect.ValueOf(&events[k]).Elem(), k, &i)
	}
	return newSeries(Meta{Workload: "chaserand", Prefetcher: "stream", Controller: "fdp", Truncated: 2}, events)
}

// sameEvents reports whether two streams match field for field, floats
// compared by their bits so NaN payloads count.
func sameEvents(a, b []sim.DecisionEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !sameFields(reflect.ValueOf(a[k]), reflect.ValueOf(b[k])) {
			return false
		}
	}
	return true
}

func sameFields(x, y reflect.Value) bool {
	for i := 0; i < x.NumField(); i++ {
		fx, fy := x.Field(i), y.Field(i)
		switch fx.Kind() {
		case reflect.Struct:
			if !sameFields(fx, fy) {
				return false
			}
		case reflect.Float64:
			if math.Float64bits(fx.Float()) != math.Float64bits(fy.Float()) {
				return false
			}
		default:
			if !fx.Equal(fy) {
				return false
			}
		}
	}
	return true
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
		if len(got.Events) != n || n > 0 && !reflect.DeepEqual(got.Events, s.Events) {
			t.Errorf("n=%d events mismatch", n)
		}
		if !reflect.DeepEqual(got.Columns, s.Columns) {
			t.Errorf("n=%d catalog columns mismatch", n)
		}
	}
}

// TestColumnLayout pins version 2's column order: every DecisionEvent
// field, by its JSON path. A change to DecisionEvent's fields fails here
// and needs a new Version.
func TestColumnLayout(t *testing.T) {
	want := "core interval cycle retired " +
		"raw.pref_sent raw.pref_used raw.pref_late raw.pollution_misses raw.demand_misses " +
		"decayed.pref_sent decayed.pref_used decayed.pref_late decayed.pollution_misses decayed.demand_misses " +
		"accuracy lateness pollution accuracy_class late polluting controller bus_util " +
		"case update reason dcc_before dcc_after distance degree insertion " +
		"sample.cycles.retire_full sample.cycles.retire_partial sample.cycles.stall_load_miss " +
		"sample.cycles.stall_rob_full sample.cycles.stall_dram_bp sample.cycles.stall_ifetch " +
		"sample.cycles.stall_frontend sample.bus_demand_cycles sample.bus_prefetch_cycles " +
		"sample.bus_writeback_cycles sample.bus_utilization sample.row_hits sample.row_misses " +
		"sample.mshr_mean sample.queue_mean"
	var got []string
	for _, c := range columns {
		got = append(got, c.name)
	}
	if g := strings.Join(got, " "); g != want || Version != 2 {
		t.Fatalf("version %d columns:\n%s\nwant version 2's:\n%s", Version, g, want)
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

// TestEncodeRejectsRaggedColumns: the event count must match the
// interval count the header will carry.
func TestEncodeRejectsRaggedColumns(t *testing.T) {
	s := sampleSeries(4)
	s.Events = s.Events[:2]
	if _, err := Encode(s); err == nil {
		t.Error("Encode accepted fewer events than intervals")
	}
	s = sampleSeries(4)
	s.Meta.Intervals = 5
	if _, err := Encode(s); err == nil {
		t.Error("Encode accepted more intervals than events")
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
			// before the header frame parses.
			t.Fatalf("cut %d: error does not wrap ErrCorrupt: %v", cut, err)
		}
	}
}

// TestDecodeBitFlips flips every bit of the document: no flip may be
// silently accepted as the original, and none may panic. (Almost all are
// caught by the CRC frames, the magic, or the footer; a flip inside the
// header JSON that survives parsing may legally decode to different meta.)
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
			if reflect.DeepEqual(got.Meta, orig.Meta) && sameEvents(got.Events, orig.Events) {
				t.Fatalf("flip byte %d bit %d: decode silently returned the original", i, bit)
			}
		}
	}
}

// TestDecodeVersionSkew patches the header frame to a future version (and
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
	patched := bytes.Replace(payload, []byte(`"version":2`), []byte(`"version":9`), 1)
	if bytes.Equal(patched, payload) {
		t.Fatal("version field not found in header payload")
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

package series

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzDecode hammers the sidecar frame decoder: arbitrary input must
// never panic or over-allocate, and any input that decodes successfully
// must re-encode and decode to the same events and catalog columns (the
// codec is lossless on its accepted set).
func FuzzDecode(f *testing.F) {
	for _, n := range []int{0, 1, 17} {
		enc, err := Encode(sampleSeries(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Seed a few broken variants so the corpus starts near the
		// interesting edges.
		f.Add(enc[:len(enc)/2])
		mut := append([]byte(nil), enc...)
		if len(mut) > 20 {
			mut[20] ^= 0x40
		}
		f.Add(mut)
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted document failed to re-encode: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded document failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s2.Meta, s.Meta) {
			t.Fatalf("round trip changed the meta:\n%+v\n%+v", s.Meta, s2.Meta)
		}
		if !sameEvents(s2.Events, s.Events) {
			t.Fatal("round trip changed the events")
		}
		if len(s2.Columns) != len(s.Columns) {
			t.Fatal("round trip changed column count")
		}
		for i := range s.Columns {
			a := float64sToBits(s.Columns[i])
			b := float64sToBits(s2.Columns[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("round trip changed column %d", i)
			}
		}
	})
}

// float64sToBits flattens a column to raw IEEE bits so NaN payloads
// compare exactly (fuzzed floats can be any bit pattern).
func float64sToBits(col []float64) []byte {
	out := make([]byte, 0, len(col)*8)
	for _, v := range col {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(bits>>s))
		}
	}
	return out
}

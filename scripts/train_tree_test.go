package main

import (
	"reflect"
	"strings"
	"testing"

	"fdpsim/internal/control"
)

// TestReadSamples turns a two-event decision trace into the samples the
// tree fits: features encoded as the controller evaluates them, labelled
// with the counter delta and the lower-cased insertion position.
func TestReadSamples(t *testing.T) {
	const trace = `{"interval":1,"accuracy":0.25,"lateness":0,"pollution":0.125,"accuracy_class":"Low","late":false,"polluting":true,"bus_util":0.75,"dcc_before":3,"dcc_after":2,"insertion":"LRU-4"}
{"interval":2,"accuracy":0.9,"lateness":0.5,"pollution":0,"accuracy_class":"Medium","late":true,"polluting":false,"bus_util":0.5,"dcc_before":2,"dcc_after":3,"insertion":"MID"}
`
	got, err := readSamples(strings.NewReader(trace), control.FeatureNames())
	if err != nil {
		t.Fatal(err)
	}
	want := []control.Sample{
		{Features: []float64{0.25, 0, 0.125, 0.75, 3, 0, 0, 1}, Delta: -1, Insertion: "lru-4"},
		{Features: []float64{0.9, 0.5, 0, 0.5, 2, 1, 1, 0}, Delta: 1, Insertion: "mid"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %+v\nwant      %+v", got, want)
	}
	if _, err := readSamples(strings.NewReader("{not json"), control.FeatureNames()); err == nil {
		t.Fatal("a malformed trace was accepted")
	}
}

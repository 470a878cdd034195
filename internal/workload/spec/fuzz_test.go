package spec

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fdpsim/internal/cpu"
)

// fuzzOpsPerLane is how many micro-ops FuzzSpec draws from each lane of
// a spec that parses.
const fuzzOpsPerLane = 2048

// FuzzSpec drives Parse, the JSON and YAML-subset front door of every
// spec the CLIs, the job API and the disk hand the simulator, with
// arbitrary bytes: it must return a spec or an error matching ErrInvalid,
// never panic. A spec that parses has validated, so each of its lanes'
// Sources must then emit fuzzOpsPerLane well-formed micro-ops without
// panicking or hanging. Seeded from testdata and the validation table's
// representative spec; wired into `make fuzz-smoke` and CI.
func FuzzSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no spec seeds in testdata: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	js, err := json.Marshal(twoPhase())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(js)
	f.Add([]byte("name: w\nphases:\n  - clients:\n      - pattern:\n          kind: chase\n          run_blocks: 64\n"))
	f.Add([]byte(`{"name":"w","phases":[{"clients":[{"burst_on":3,"pattern":{"kind":"stride","footprint_kb":1,"strides":[{"bytes":-100000}]}}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Parse error does not match ErrInvalid: %v", err)
			}
			return
		}
		if _, err := s.Canonical(); err != nil {
			t.Fatalf("a parsed spec has no canonical form: %v", err)
		}
		for lane := range s.Lanes() {
			src := s.Source(lane, 1)
			for i := 0; i < fuzzOpsPerLane; i++ {
				switch op := src.Next(); op.Kind {
				case cpu.Nop, cpu.Store:
				case cpu.Load:
					if op.Dep < 0 || op.Dep > loadRingDeps {
						t.Fatalf("lane %d op %d: dep %d outside [0,%d]", lane, i, op.Dep, loadRingDeps)
					}
				default:
					t.Fatalf("lane %d op %d: invalid kind %d", lane, i, op.Kind)
				}
			}
		}
	})
}

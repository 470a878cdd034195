package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"fdpsim/internal/sim"
)

// Every simulated run the benchmark makes is checked against a digest
// checked in beside it. A digest covers what the simulation computed —
// the counters, the DRAM statistics, IPC, BPKI and the final
// aggressiveness level — and leaves out labels and host time (Workload,
// Prefetcher, Elapsed), so a run whose prefetcher is wrapped in a timing
// seam (PrefCustom) compares equal to the plain run.

//go:embed digests.json
var digestsJSON []byte

// loadDigests parses the checked-in digest table.
func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// digester accumulates the fixed-size binary form of simulated outputs.
type digester struct{ buf bytes.Buffer }

func (d *digester) put(v any) {
	// binary.Write only fails for values without a fixed size, which no
	// caller passes.
	if err := binary.Write(&d.buf, binary.LittleEndian, v); err != nil {
		panic(err)
	}
}

func (d *digester) float(f float64) { d.put(math.Float64bits(f)) }

func (d *digester) result(r *sim.Result) {
	d.put(r.Counters)
	d.put(r.DRAM)
	d.float(r.IPC)
	d.float(r.BPKI)
	d.put(int64(r.FinalLevel))
}

func (d *digester) sum() string {
	s := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(s[:])
}

// digestResult digests one single-core result.
func digestResult(r *sim.Result) string {
	var d digester
	d.result(r)
	return d.sum()
}

// digestMulti digests a multi-core result: every core's result and finish
// cycle plus the shared-bus totals.
func digestMulti(m *sim.MultiResult) string {
	var d digester
	for i := range m.Cores {
		d.result(&m.Cores[i].Result)
		d.put(m.Cores[i].FinishCycle)
	}
	d.put(m.Cycles)
	d.put(m.TotalBusAccesses)
	return d.sum()
}

// digestSMT digests an SMT result: the shared counters and every thread's
// finish line.
func digestSMT(r *sim.SMTResult) string {
	var d digester
	d.put(r.Counters)
	d.put(r.Cycles)
	d.float(r.BPKI)
	d.put(int64(r.FinalLevel))
	for _, th := range r.Threads {
		d.put(th.Retired)
		d.put(th.FinishCycle)
		d.float(th.IPC)
	}
	return d.sum()
}

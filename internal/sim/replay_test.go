package sim

import (
	"bytes"
	"context"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/trace"
	"fdpsim/internal/workload"
)

// nopPCWorkload is the one builtin workload whose Nops carry explicit
// PCs. Trace-v2 stores no PC for a Nop, and the core fetches a Nop
// without one right after the previous instruction: codewalk's first
// op, a Nop at 0x10000000, replays at PC 0, and each wrap back to its
// first function (every 1,536th call) replays as a fall-through.
const nopPCWorkload = "codewalk"

// zeroNopPCs passes a source's ops through with the PCs of its Nops
// cleared: what a trace-v2 recording keeps of them.
type zeroNopPCs struct{ cpu.Source }

func (z zeroNopPCs) Next() cpu.MicroOp {
	op := z.Source.Next()
	if op.Kind == cpu.Nop {
		op.PC = 0
	}
	return op
}

// TestReplayMatchesGeneration is the replay-equals-generation oracle.
// Every builtin workload is recorded through trace-v2 (several frames),
// must read back op for op, and replayed must give the Result its
// in-memory generation gives. The one known divergence, nopPCWorkload,
// is pinned: its generated stream differs from the recording, and
// equals it, in ops and in Result, once its Nop PCs are zeroed.
func TestReplayMatchesGeneration(t *testing.T) {
	const warm, insts = 20_000, 40_000
	// The core fetches up to a ROB ahead of retirement, so the recording
	// holds more ops than the run retires.
	const n = warm + insts + 4096
	ctx := context.Background()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := WithFDP(PrefStream)
			cfg.Workload, cfg.WarmupInsts, cfg.MaxInsts = name, warm, insts
			gen := func() cpu.Source {
				src, err := workload.New(name, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}

			var buf bytes.Buffer
			w, err := trace.NewWriterV2(&buf, name)
			if err != nil {
				t.Fatal(err)
			}
			src := gen()
			ops := make([]cpu.MicroOp, n)
			for i := range ops {
				ops[i] = src.Next()
				if err := w.Write(ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if name == nopPCWorkload {
				diverged := false
				for i := range ops {
					if ops[i].Kind == cpu.Nop && ops[i].PC != 0 {
						ops[i].PC, diverged = 0, true
					}
				}
				if !diverged {
					t.Fatalf("%s's Nops carry no PC any more: drop it as the known divergence", name)
				}
			}

			r, err := trace.NewReaderV2(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range ops {
				if got := r.Next(); got != want {
					t.Fatalf("op %d read back as %+v, generated %+v (err %v)", i, got, want, r.Err())
				}
			}

			replay, err := trace.Open(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSourceContext(ctx, cfg, replay)
			if err != nil {
				t.Fatal(err)
			}
			if replay.Exhausted() {
				t.Fatalf("the %d-op recording ran out before the retire target", n)
			}
			var want Result
			if name == nopPCWorkload {
				want, err = RunSourceContext(ctx, cfg, zeroNopPCs{gen()})
			} else {
				want, err = RunContext(ctx, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("replay differs from generation:\nreplay    %s\ngenerated %s", g, w)
			}
		})
	}
}

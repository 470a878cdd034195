// Package trace provides a compact binary format for recording and
// replaying micro-op streams, giving the simulator an execution-driven
// front end that can be decoupled from the workload generators: record a
// generator once with cmd/tracegen, then replay the identical instruction
// stream across configurations.
//
// Format (v2, see tracev2.go): a magic header, a name, then CRC-framed
// blocks of varint-encoded records, one per micro-op. Non-memory ops are
// run-length encoded; memory-op addresses are delta-encoded per kind,
// which keeps streaming traces near one byte per skipped instruction.
// The retired whole-file v1 format is rejected with ErrFormatV1.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
)

// ErrFormatV1 reports a trace in the retired whole-file v1 format, which
// nothing reads any more; re-record it with tracegen, which writes v2.
var ErrFormatV1 = errors.New("trace: v1 format is no longer supported; re-record the trace with tracegen")

// magicV1 identifies the retired v1 format, so Open can name it.
var magicV1 = [8]byte{'F', 'D', 'P', 'T', 'R', 'C', 0, 1}

// Record tags.
const (
	tagNops  = 0 // followed by count
	tagLoad  = 1 // followed by zigzag addr delta, pc delta, dep
	tagStore = 2 // followed by zigzag addr delta, pc delta
)

// maxNameLen bounds the header's name: untrusted trace files must not be
// able to demand unbounded allocations.
const maxNameLen = 4096

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"fdpsim/internal/cpu"
)

// Trace format v2: varint/zigzag records (the tags in trace.go), block-
// framed so billion-access traces stream at O(frame) memory instead of
// being decoded whole:
//
//	header  := magicV2  uvarint(len(name))  name
//	frames  := frame*  uvarint(0)
//	frame   := uvarint(payloadLen)  uvarint(opCount)  crc32le  payload
//	footer  := uint64le(totalOps)  endMagicV2
//
// payload holds opCount micro-ops in the record encoding with the delta
// state (lastAddr, lastPC) reset at the frame boundary, so every
// frame decodes independently and corruption is contained to one frame.
// The zero-length-frame terminator separates the frame stream from the
// fixed 16-byte footer, which lets a seekable reader learn the op count
// with one seek instead of a full scan, and lets Loop rewind precisely.

// magicV2 identifies v2 trace files (v1's prefix, version byte 2).
var magicV2 = [8]byte{'F', 'D', 'P', 'T', 'R', 'C', 0, 2}

// endMagicV2 terminates the fixed footer.
var endMagicV2 = [8]byte{'F', 'D', 'P', 'E', 'N', 'D', 0, 2}

// Frame limits. The writer targets frameTargetOps ops per frame; the
// reader accepts up to the max* bounds so malformed or foreign files can
// never demand unbounded allocations.
const (
	frameTargetOps  = 8192
	maxFrameOps     = 1 << 16
	maxFramePayload = 1 << 22
	footerLen       = 16
)

// ReplaySource is what Open returns: a trace reader replay code drives
// without naming the format version.
type ReplaySource interface {
	cpu.Source
	// Ops is the recorded micro-op count: exact for seekable inputs, 0
	// for a non-seekable stream until it is exhausted.
	Ops() uint64
	// SetLoop makes the source restart instead of padding Nops when the
	// recording runs out. A reader can only loop over an io.Seeker.
	SetLoop(bool)
	// Exhausted reports that a non-looping source ran past its recording.
	Exhausted() bool
}

// Open sniffs the version byte and returns the reader for a v2 trace, or
// ErrFormatV1 for a v1 one. The seekable requirement is what replay
// needs anyway: op counts up front and the ability to loop.
func Open(r io.ReadSeeker) (ReplaySource, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch m {
	case magicV1:
		return nil, ErrFormatV1
	case magicV2:
		return NewReaderV2(r)
	default:
		return nil, errors.New("trace: bad magic (not a trace file)")
	}
}

// WriterV2 encodes micro-ops to a v2 stream. Memory use is one frame
// buffer regardless of trace length.
type WriterV2 struct {
	w        *bufio.Writer
	payload  []byte // current frame payload, reused
	nops     uint64
	lastAddr int64
	lastPC   int64
	frameOps uint64
	count    uint64
	closed   bool
}

// NewWriterV2 starts a v2 trace with the given workload name.
func NewWriterV2(w io.Writer, name string) (*WriterV2, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", len(name), maxNameLen)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return nil, err
	}
	writeUvarint(bw, uint64(len(name)))
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &WriterV2{w: bw}, nil
}

// Write appends one micro-op. A Nop only extends the pending run; a
// memory op appends its record straight into the frame payload.
func (t *WriterV2) Write(op cpu.MicroOp) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	t.count++
	t.frameOps++
	if op.Kind == cpu.Nop {
		t.nops++
	} else {
		t.flushNops()
		p := t.payload
		if op.Kind == cpu.Store {
			p = append(p, tagStore)
		} else {
			p = append(p, tagLoad)
		}
		p = binary.AppendVarint(p, int64(op.Addr)-t.lastAddr)
		p = binary.AppendVarint(p, int64(op.PC)-t.lastPC)
		if op.Kind == cpu.Load {
			p = binary.AppendUvarint(p, uint64(op.Dep))
		}
		t.payload = p
		t.lastAddr = int64(op.Addr)
		t.lastPC = int64(op.PC)
	}
	if t.frameOps >= frameTargetOps {
		return t.flushFrame()
	}
	return nil
}

func (t *WriterV2) flushNops() {
	if t.nops > 0 {
		t.payload = binary.AppendUvarint(append(t.payload, tagNops), t.nops)
		t.nops = 0
	}
}

func (t *WriterV2) flushFrame() error {
	if t.frameOps == 0 {
		return nil
	}
	t.flushNops()
	writeUvarint(t.w, uint64(len(t.payload)))
	writeUvarint(t.w, t.frameOps)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(t.payload))
	if _, err := t.w.Write(crc[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(t.payload); err != nil {
		return err
	}
	t.payload = t.payload[:0]
	t.frameOps = 0
	t.lastAddr = 0
	t.lastPC = 0
	return nil
}

// Count returns the number of micro-ops written so far.
func (t *WriterV2) Count() uint64 { return t.count }

// Close flushes the final frame and writes the terminator and footer.
// The underlying writer is not closed.
func (t *WriterV2) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if err := t.flushFrame(); err != nil {
		return err
	}
	writeUvarint(t.w, 0) // frame-stream terminator
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[:8], t.count)
	copy(footer[8:], endMagicV2[:])
	if _, err := t.w.Write(footer[:]); err != nil {
		return err
	}
	return t.w.Flush()
}

// ReaderV2 streams a v2 trace, holding one decoded frame at a time, and
// implements cpu.Source. When the trace is exhausted it pads with Nops,
// or — over an io.Seeker with Loop set — rewinds to the first frame and
// replays identically. Frame corruption (bad CRC, malformed records)
// stops the stream; Err reports it.
type ReaderV2 struct {
	r       *bufio.Reader
	rs      io.ReadSeeker // non-nil when the input can rewind
	name    string
	bodyOff int64  // file offset of the first frame
	total   uint64 // footer op count (0 for non-seekable until exhausted)
	seen    uint64 // ops decoded since construction or last rewind

	// ops holds the current frame's records, reused: a memory op, or a
	// Nop whose Addr is the length of the run it stands for. nops counts
	// down what is left of the run Next is in.
	ops     []cpu.MicroOp
	pos     int
	nops    uint64
	payload []byte // frame payload buffer, reused

	loop  bool
	ended bool
	err   error
}

// NewReaderV2 opens a v2 trace for streaming. If r is an io.ReadSeeker
// the footer is read up front, so Ops is exact before the first Next.
func NewReaderV2(r io.Reader) (*ReaderV2, error) {
	t := &ReaderV2{}
	if rs, ok := r.(io.ReadSeeker); ok {
		total, err := readFooter(rs)
		if err != nil {
			return nil, err
		}
		t.rs = rs
		t.total = total
	}
	t.r = bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(t.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magicV2 {
		return nil, errors.New("trace: bad magic (not a v2 trace file)")
	}
	nameLen, err := binary.ReadUvarint(t.r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", nameLen, maxNameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(t.r, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	t.name = string(nameBuf)
	var scratch [binary.MaxVarintLen64]byte
	t.bodyOff = int64(len(magicV2)) + int64(binary.PutUvarint(scratch[:], nameLen)) + int64(nameLen)
	return t, nil
}

// readFooter validates the fixed footer and returns the total op count,
// leaving the seek position at the start of the file.
func readFooter(rs io.ReadSeeker) (uint64, error) {
	if _, err := rs.Seek(-footerLen, io.SeekEnd); err != nil {
		return 0, fmt.Errorf("trace: seeking footer: %w", err)
	}
	var footer [footerLen]byte
	if _, err := io.ReadFull(rs, footer[:]); err != nil {
		return 0, fmt.Errorf("trace: reading footer: %w", err)
	}
	if !bytes.Equal(footer[8:], endMagicV2[:]) {
		return 0, errors.New("trace: bad footer magic (truncated or corrupt v2 trace)")
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(footer[:8]), nil
}

// Name implements cpu.Source.
func (t *ReaderV2) Name() string { return t.name }

// Ops implements ReplaySource.
func (t *ReaderV2) Ops() uint64 { return t.total }

// SetLoop implements ReplaySource. Looping needs an io.Seeker; over a
// plain stream the reader ends as if Loop were unset.
func (t *ReaderV2) SetLoop(loop bool) { t.loop = loop }

// Exhausted implements ReplaySource.
func (t *ReaderV2) Exhausted() bool { return t.ended }

// Err returns the decode error that stopped the stream, if any. An
// exhausted reader with a nil Err consumed the recording cleanly.
func (t *ReaderV2) Err() error { return t.err }

// Next implements cpu.Source.
func (t *ReaderV2) Next() cpu.MicroOp {
	if t.nops > 0 {
		t.nops--
		return cpu.MicroOp{Kind: cpu.Nop}
	}
	for t.pos >= len(t.ops) {
		if t.ended {
			return cpu.MicroOp{Kind: cpu.Nop}
		}
		err := t.readFrame()
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			// Clean end of the frame stream.
			if t.total == 0 {
				t.total = t.seen
			}
			if t.loop && t.rs != nil && t.seen > 0 {
				if serr := t.rewind(); serr != nil {
					t.fail(serr)
					return cpu.MicroOp{Kind: cpu.Nop}
				}
				continue
			}
			t.ended = true
			return cpu.MicroOp{Kind: cpu.Nop}
		default:
			t.fail(err)
			return cpu.MicroOp{Kind: cpu.Nop}
		}
	}
	op := t.ops[t.pos]
	t.pos++
	if op.Kind == cpu.Nop {
		t.nops = op.Addr - 1
		return cpu.MicroOp{Kind: cpu.Nop}
	}
	return op
}

func (t *ReaderV2) fail(err error) {
	t.err = err
	t.ended = true
	t.ops = t.ops[:0]
	t.pos = 0
	t.nops = 0
}

// rewind seeks back to the first frame for another Loop pass.
func (t *ReaderV2) rewind() error {
	if _, err := t.rs.Seek(t.bodyOff, io.SeekStart); err != nil {
		return fmt.Errorf("trace: rewinding: %w", err)
	}
	t.r.Reset(t.rs)
	t.seen = 0
	t.nops = 0
	return nil
}

// readFrame reads and decodes the next frame into t.ops. It returns
// io.EOF exactly at the zero-length terminator.
func (t *ReaderV2) readFrame() error {
	payloadLen, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: reading frame header: %w", noEOF(err))
	}
	if payloadLen == 0 {
		return io.EOF
	}
	if payloadLen > maxFramePayload {
		return fmt.Errorf("trace: frame payload %d exceeds the %d-byte limit", payloadLen, maxFramePayload)
	}
	opCount, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: reading frame header: %w", noEOF(err))
	}
	if opCount == 0 || opCount > maxFrameOps {
		return fmt.Errorf("trace: frame op count %d outside 1..%d", opCount, maxFrameOps)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(t.r, crcBuf[:]); err != nil {
		return fmt.Errorf("trace: reading frame crc: %w", noEOF(err))
	}
	if uint64(cap(t.payload)) < payloadLen {
		t.payload = make([]byte, payloadLen)
	}
	t.payload = t.payload[:payloadLen]
	if _, err := io.ReadFull(t.r, t.payload); err != nil {
		return fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(t.payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return fmt.Errorf("trace: frame crc mismatch (got %#x, want %#x)", got, want)
	}
	if err := t.decodeFrame(opCount); err != nil {
		return err
	}
	t.seen += opCount
	t.pos = 0
	return nil
}

var (
	errBadUvarint = errors.New("trace: malformed uvarint in frame")
	errBadVarint  = errors.New("trace: malformed varint in frame")
)

// decodeFrame decodes the payload's records into t.ops, one entry per
// record, enforcing that the records yield exactly the declared op count.
func (t *ReaderV2) decodeFrame(opCount uint64) error {
	t.ops = t.ops[:0]
	buf := t.payload
	var lastAddr, lastPC int64
	var n uint64 // ops decoded so far
	for len(buf) > 0 {
		tag, k := binary.Uvarint(buf)
		if k <= 0 {
			return errBadUvarint
		}
		buf = buf[k:]
		switch tag {
		case tagNops:
			run, k := binary.Uvarint(buf)
			if k <= 0 {
				return errBadUvarint
			}
			buf = buf[k:]
			if run == 0 || run > opCount-n {
				return fmt.Errorf("trace: nop run of %d overflows the frame's %d ops", run, opCount)
			}
			t.ops = append(t.ops, cpu.MicroOp{Kind: cpu.Nop, Addr: run})
			n += run
		case tagLoad, tagStore:
			if n >= opCount {
				return fmt.Errorf("trace: frame exceeds its declared %d ops", opCount)
			}
			da, k := binary.Varint(buf)
			if k <= 0 {
				return errBadVarint
			}
			buf = buf[k:]
			dp, k := binary.Varint(buf)
			if k <= 0 {
				return errBadVarint
			}
			buf = buf[k:]
			lastAddr += da
			lastPC += dp
			op := cpu.MicroOp{Kind: cpu.Store, Addr: uint64(lastAddr), PC: uint64(lastPC)}
			if tag == tagLoad {
				dep, k := binary.Uvarint(buf)
				if k <= 0 {
					return errBadUvarint
				}
				buf = buf[k:]
				op.Kind = cpu.Load
				op.Dep = int(dep)
			}
			t.ops = append(t.ops, op)
			n++
		default:
			return fmt.Errorf("trace: unknown record tag %d", tag)
		}
	}
	if n != opCount {
		return fmt.Errorf("trace: frame decoded %d ops, header declared %d", n, opCount)
	}
	return nil
}

// noEOF upgrades a bare EOF to ErrUnexpectedEOF: inside a frame, running
// out of bytes is always truncation, never a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

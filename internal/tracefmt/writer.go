package tracefmt

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
)

// WriterOptions configures a Writer; the zero value selects every
// default.
type WriterOptions struct {
	// BlockRecords is the number of records per block; <= 0 uses
	// DefaultBlockRecords.
	BlockRecords int
	// Workers sets how many goroutines encode block payloads in
	// parallel; <= 1 encodes inline on the caller's goroutine. Output
	// bytes are identical at every worker count: dictionary indexes
	// are still assigned in record order on the caller's goroutine,
	// workers only turn finished row batches into frames, and a single
	// sequencer writes the frames in submission order (see DESIGN.md,
	// "Block-order sequencing").
	Workers int
}

// A Writer encodes failure records into the columnar binary trace
// format, one record at a time, so a producer (a CSV scanner, the LANL
// generator's streaming emitter) can write traces of any size in
// bounded memory. The header goes out at construction; Close flushes
// the final block, the footer and the trailer, and must be called for
// the file to be readable.
//
// Write's signature matches the emit callback of lanl.GenerateStream,
// so the fused pipeline is literally gen.GenerateStream(w.Write).
//
// The per-record path appends a fixed-width row to a reusable block
// buffer: after the first few blocks it allocates only when a
// never-before-seen label enters a dictionary. With Workers > 1 the
// row→frame encode (column transpose, dictionary deltas, CRC) runs on
// a bounded pool; validation errors still surface synchronously from
// Write, while I/O errors from the sequencer may surface on a later
// Write or at Close.
type Writer struct {
	w      io.Writer
	blockN int

	// rows is the block under construction; hwNew/detNew hold the
	// dictionary entries first seen in it, flushed with it.
	rows   []encRow
	hwNew  []failures.HWType
	detNew []string

	// Dictionaries, global across the file.
	hwIdx  map[failures.HWType]uint16
	hwAll  []failures.HWType
	detIdx map[string]uint32
	detAll []string

	// File assembly state. With a pool running, offset and index are
	// owned by the sequencer (in par) until shutdownPool merges them
	// back; total stays caller-owned, bumped at dispatch.
	offset  int64 // bytes written so far
	index   []BlockInfo
	total   uint64
	scratch []byte // frame assembly buffer, reused across flushes
	closed  bool
	err     error

	par *parWriter
}

// encRow is one record, validated and dictionary-indexed, waiting to be
// transposed into its block's columns.
type encRow struct {
	startN int64
	endD   int64
	sys    uint32
	nod    uint32
	det    uint32
	hw     uint16
	wl     byte
	cause  byte
}

// NewWriter writes the file header to w and returns a Writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	n := opts.BlockRecords
	if n <= 0 {
		n = DefaultBlockRecords
	}
	tw := &Writer{
		w:      w,
		blockN: n,
		hwIdx:  make(map[failures.HWType]uint16),
		detIdx: make(map[string]uint32),
	}
	hdr := append([]byte(magic), 0, 0)
	le.PutUint16(hdr[len(magic):], Version)
	if err := tw.writeRaw(hdr); err != nil {
		return nil, fmt.Errorf("tracefmt: write header: %w", err)
	}
	if opts.Workers > 1 {
		tw.par = newParWriter(w, tw.offset, opts.Workers)
	}
	return tw, nil
}

func (w *Writer) writeRaw(b []byte) error {
	n, err := w.w.Write(b)
	w.offset += int64(n)
	if err != nil {
		w.err = err
	}
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return int(w.total) + len(w.rows) }

// Write appends one record. Records are stored exactly as given — the
// format neither sorts nor validates beyond what it can represent: times
// within the int64 epoch-nanosecond range, system and node within
// int32, workload and cause within their enum ranges.
func (w *Writer) Write(r failures.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefmt: write after Close")
	}
	startN, err := epochNanos(r.Start, "start")
	if err != nil {
		return w.poison(err)
	}
	endN, err := epochNanos(r.End, "end")
	if err != nil {
		return w.poison(err)
	}
	if r.System < 0 || int64(r.System) > math.MaxInt32 {
		return w.poison(fmt.Errorf("tracefmt: system ID %d outside int32", r.System))
	}
	if r.Node < 0 || int64(r.Node) > math.MaxInt32 {
		return w.poison(fmt.Errorf("tracefmt: node ID %d outside int32", r.Node))
	}
	if r.Workload < 0 || r.Workload > 255 {
		return w.poison(fmt.Errorf("tracefmt: workload %d outside byte range", int(r.Workload)))
	}
	if r.Cause < 0 || r.Cause > 255 {
		return w.poison(fmt.Errorf("tracefmt: cause %d outside byte range", int(r.Cause)))
	}
	hw, err := w.hwIndex(r.HW)
	if err != nil {
		return w.poison(err)
	}
	det, err := w.detIndex(r.Detail)
	if err != nil {
		return w.poison(err)
	}

	w.rows = append(w.rows, encRow{
		startN: startN,
		endD:   endN - startN,
		sys:    uint32(r.System),
		nod:    uint32(r.Node),
		det:    det,
		hw:     hw,
		wl:     byte(r.Workload),
		cause:  byte(r.Cause),
	})
	if len(w.rows) >= w.blockN {
		if w.par != nil {
			return w.dispatchBlock()
		}
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) poison(err error) error {
	w.err = err
	return err
}

// epochNanos converts a time to epoch nanoseconds, rejecting instants
// the int64 range cannot represent (UnixNano would silently wrap).
func epochNanos(t time.Time, what string) (int64, error) {
	n := t.UnixNano()
	if !time.Unix(0, n).Equal(t) {
		return 0, fmt.Errorf("tracefmt: %s time %v outside the epoch-nanosecond range", what, t)
	}
	return n, nil
}

func (w *Writer) hwIndex(hw failures.HWType) (uint16, error) {
	if i, ok := w.hwIdx[hw]; ok {
		return i, nil
	}
	if len(hw) > maxLabelLen {
		return 0, fmt.Errorf("tracefmt: hardware label %d bytes long, max %d", len(hw), maxLabelLen)
	}
	if len(w.hwAll) >= maxHWDict {
		return 0, fmt.Errorf("tracefmt: more than %d distinct hardware labels", maxHWDict)
	}
	i := uint16(len(w.hwAll))
	w.hwIdx[hw] = i
	w.hwAll = append(w.hwAll, hw)
	w.hwNew = append(w.hwNew, hw)
	return i, nil
}

func (w *Writer) detIndex(det string) (uint32, error) {
	if i, ok := w.detIdx[det]; ok {
		return i, nil
	}
	if len(det) > maxLabelLen {
		return 0, fmt.Errorf("tracefmt: detail label %d bytes long, max %d", len(det), maxLabelLen)
	}
	if len(w.detAll) >= maxDetailDict {
		return 0, fmt.Errorf("tracefmt: more than %d distinct detail labels", maxDetailDict)
	}
	i := uint32(len(w.detAll))
	w.detIdx[det] = i
	w.detAll = append(w.detAll, det)
	w.detNew = append(w.detNew, det)
	return i, nil
}

// appendBlockFrame appends a complete block frame — header, prefix,
// dictionary deltas, transposed columns, CRC — to dst and returns the
// block's start-time bounds. It is pure (touches no Writer state), so
// the sequential flush and every pool worker produce identical bytes
// for identical inputs.
func appendBlockFrame(dst []byte, rows []encRow, hwNew []failures.HWType, detNew []string) ([]byte, int64, int64, error) {
	base := len(dst)
	var zero [frameSize]byte
	dst = append(dst, zero[:]...)
	minS, maxS := rows[0].startN, rows[0].startN
	for _, r := range rows[1:] {
		if r.startN < minS {
			minS = r.startN
		}
		if r.startN > maxS {
			maxS = r.startN
		}
	}
	dst = le.AppendUint32(dst, uint32(len(rows)))
	dst = le.AppendUint64(dst, uint64(minS))
	dst = le.AppendUint64(dst, uint64(maxS))
	dst = le.AppendUint16(dst, uint16(len(hwNew)))
	for _, hw := range hwNew {
		dst = le.AppendUint16(dst, uint16(len(hw)))
		dst = append(dst, hw...)
	}
	dst = le.AppendUint32(dst, uint32(len(detNew)))
	for _, det := range detNew {
		dst = le.AppendUint16(dst, uint16(len(det)))
		dst = append(dst, det...)
	}
	for _, r := range rows {
		dst = le.AppendUint64(dst, uint64(r.startN))
	}
	for _, r := range rows {
		dst = le.AppendUint64(dst, uint64(r.endD))
	}
	for _, r := range rows {
		dst = le.AppendUint32(dst, r.sys)
	}
	for _, r := range rows {
		dst = le.AppendUint32(dst, r.nod)
	}
	for _, r := range rows {
		dst = le.AppendUint16(dst, r.hw)
	}
	for _, r := range rows {
		dst = append(dst, r.wl)
	}
	for _, r := range rows {
		dst = append(dst, r.cause)
	}
	for _, r := range rows {
		dst = le.AppendUint32(dst, r.det)
	}
	payload := dst[base+frameSize:]
	if len(payload) > maxFramePayload {
		return dst, 0, 0, fmt.Errorf("tracefmt: frame payload %d bytes exceeds the %d cap (lower BlockRecords)",
			len(payload), maxFramePayload)
	}
	hdr := dst[base : base+frameSize]
	hdr[0] = frameBlock
	le.PutUint32(hdr[1:], uint32(len(payload)))
	le.PutUint32(hdr[5:], crc32Checksum(payload))
	return dst, minS, maxS, nil
}

// flushBlock encodes and writes the block under construction inline
// (the sequential path).
func (w *Writer) flushBlock() error {
	if len(w.rows) == 0 {
		return nil
	}
	frame, minS, maxS, err := appendBlockFrame(w.scratch[:0], w.rows, w.hwNew, w.detNew)
	w.scratch = frame[:0]
	if err != nil {
		return w.poison(err)
	}
	info := BlockInfo{
		Offset:   w.offset,
		Records:  len(w.rows),
		MinStart: minS,
		MaxStart: maxS,
	}
	if err := w.writeRaw(frame); err != nil {
		return fmt.Errorf("tracefmt: write frame: %w", err)
	}
	w.index = append(w.index, info)
	w.total += uint64(len(w.rows))
	w.rows = w.rows[:0]
	w.hwNew = w.hwNew[:0]
	w.detNew = w.detNew[:0]
	return nil
}

// writeFrame frames a payload with its kind, length and CRC-32C (footer
// path; blocks go through appendBlockFrame).
func (w *Writer) writeFrame(kind byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return w.poison(fmt.Errorf("tracefmt: frame payload %d bytes exceeds the %d cap (lower BlockRecords)",
			len(payload), maxFramePayload))
	}
	var hdr [frameSize]byte
	hdr[0] = kind
	le.PutUint32(hdr[1:], uint32(len(payload)))
	le.PutUint32(hdr[5:], crc32Checksum(payload))
	if err := w.writeRaw(hdr[:]); err != nil {
		return fmt.Errorf("tracefmt: write frame: %w", err)
	}
	if err := w.writeRaw(payload); err != nil {
		return fmt.Errorf("tracefmt: write frame: %w", err)
	}
	return nil
}

func crc32Checksum(p []byte) uint32 { return crc32Update(0, p) }

// ---- Parallel encode: par.Pipe + block-order sequencer ----

// encJob carries one block's rows from the caller through a pipe worker
// (which renders the frame) to the sequencer (which writes frames in
// submission order). Jobs recycle through a free list, so a running
// Writer holds workers+2 blocks in the pipe plus the one it is filling.
type encJob struct {
	rows   []encRow
	hwNew  []failures.HWType
	detNew []string
	frame  []byte
	minS   int64
	maxS   int64
	err    error
}

type parWriter struct {
	w      io.Writer
	submit chan *encJob // caller → pipe, in submission order
	free   freeList[*encJob]
	cur    *encJob // the job whose buffers the caller is filling
	seqDn  chan struct{}

	// Sequencer-owned until seqDn closes; merged back by shutdownPool.
	offset int64
	index  []BlockInfo

	mu  sync.Mutex
	err error // first async error: encode overflow or write failure
}

func newParWriter(w io.Writer, offset int64, workers int) *parWriter {
	window := workers + 2
	p := &parWriter{
		w:      w,
		submit: make(chan *encJob),
		free:   make(freeList[*encJob], window),
		cur:    &encJob{},
		seqDn:  make(chan struct{}),
		offset: offset,
	}
	next := func() (*encJob, bool) {
		j, ok := <-p.submit
		return j, ok
	}
	pipe := par.NewPipe(workers, window, next, func(j *encJob) *encJob {
		j.frame, j.minS, j.maxS, j.err = appendBlockFrame(j.frame[:0], j.rows, j.hwNew, j.detNew)
		return j
	})
	go p.sequence(pipe)
	return p
}

// sequence writes finished frames in submission order — the only
// goroutine touching the underlying writer while the pool runs. After
// the first error it keeps draining (so dispatch and Close never block)
// but writes nothing further. It ends when the pipe does, after
// shutdownPool closes submit.
func (p *parWriter) sequence(pipe *par.Pipe[*encJob, *encJob]) {
	defer close(p.seqDn)
	for {
		j, ok := pipe.Next()
		if !ok {
			return
		}
		if p.getErr() == nil {
			switch {
			case j.err != nil:
				p.setErr(j.err)
			default:
				info := BlockInfo{
					Offset:   p.offset,
					Records:  len(j.rows),
					MinStart: j.minS,
					MaxStart: j.maxS,
				}
				n, werr := p.w.Write(j.frame)
				p.offset += int64(n)
				if werr != nil {
					p.setErr(fmt.Errorf("tracefmt: write frame: %w", werr))
				} else {
					p.index = append(p.index, info)
				}
			}
		}
		j.err = nil
		p.free.put(j)
	}
}

func (p *parWriter) getErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *parWriter) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// dispatchBlock hands the full block to the pipe and continues in the
// buffers of a recycled job, so the caller never copies rows. The send
// is the backpressure bound: with the pipe's window full the caller
// blocks here until the sequencer retires a block.
func (w *Writer) dispatchBlock() error {
	p := w.par
	if err := p.getErr(); err != nil {
		return w.poison(err)
	}
	if len(w.rows) == 0 {
		return nil
	}
	j := p.cur
	j.rows, j.hwNew, j.detNew = w.rows, w.hwNew, w.detNew
	w.total += uint64(len(j.rows))
	p.submit <- j
	if p.cur = p.free.get(); p.cur == nil {
		p.cur = &encJob{}
	}
	w.rows, w.hwNew, w.detNew = p.cur.rows[:0], p.cur.hwNew[:0], p.cur.detNew[:0]
	return nil
}

// shutdownPool ends the pipe, waits for every dispatched block to be
// written, and merges the sequencer's offset and index back into the
// Writer. Idempotent; returns the first async error.
func (w *Writer) shutdownPool() error {
	p := w.par
	if p == nil {
		return nil
	}
	w.par = nil
	close(p.submit)
	<-p.seqDn
	w.offset = p.offset
	w.index = p.index
	return p.getErr()
}

// Close flushes the final partial block, then writes the footer (total
// count, block index, complete dictionaries) and the trailer that lets
// a random-access reader locate the footer from the end of the file.
// Close does not close the underlying writer. On a Writer with workers,
// Close (successful or not) also stops the pool; it is the only way to
// release those goroutines.
func (w *Writer) Close() error {
	if w.err != nil {
		w.shutdownPool() // release goroutines; the original error stands
		return w.err
	}
	if w.closed {
		return nil
	}
	if w.par != nil {
		if err := w.dispatchBlock(); err != nil {
			w.shutdownPool()
			return err
		}
		if err := w.shutdownPool(); err != nil {
			return w.poison(err)
		}
	} else if err := w.flushBlock(); err != nil {
		return err
	}
	footerOffset := w.offset
	p := w.scratch[:0]
	p = le.AppendUint64(p, w.total)
	p = le.AppendUint32(p, uint32(len(w.index)))
	for _, b := range w.index {
		p = le.AppendUint64(p, uint64(b.Offset))
		p = le.AppendUint32(p, uint32(b.Records))
		p = le.AppendUint64(p, uint64(b.MinStart))
		p = le.AppendUint64(p, uint64(b.MaxStart))
	}
	p = le.AppendUint16(p, uint16(len(w.hwAll)))
	for _, hw := range w.hwAll {
		p = le.AppendUint16(p, uint16(len(hw)))
		p = append(p, hw...)
	}
	p = le.AppendUint32(p, uint32(len(w.detAll)))
	for _, det := range w.detAll {
		p = le.AppendUint16(p, uint16(len(det)))
		p = append(p, det...)
	}
	if err := w.writeFrame(frameFooter, p); err != nil {
		return err
	}
	w.scratch = p[:0]
	var tr [trailerSize]byte
	le.PutUint64(tr[:], uint64(footerOffset))
	copy(tr[8:], trailerMagic)
	if err := w.writeRaw(tr[:]); err != nil {
		return fmt.Errorf("tracefmt: write trailer: %w", err)
	}
	w.closed = true
	return nil
}

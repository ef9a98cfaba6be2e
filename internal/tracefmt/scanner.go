package tracefmt

import (
	"fmt"
	"io"
	"math"
	"time"

	"hpcfail/internal/binx"
	"hpcfail/internal/failures"
)

// ScanOptions configures a Scanner.
type ScanOptions struct {
	// From and To bound the start times of the yielded records to
	// [From, To), like failures.Dataset.Between. A zero time leaves
	// that end open. Blocks whose [min, max] start-time index falls
	// entirely outside the window are skipped without decoding a
	// single record — and, when scanning through a File, without even
	// being read.
	From, To time.Time
}

// Scanner yields failure records from a binary trace one at a time,
// implementing the same Scan/Record/Err shape as failures.Scanner, so
// it plugs directly into engine.AnalyzeStream as a RecordSource. It
// also implements ScanBatch (engine.BatchSource), which hands the
// fused pipeline a whole decoded block per call.
//
// Both paths decode a block at a time, through decodeNext, into one
// record buffer reused across blocks; the only other steady-state
// allocations are one payload buffer, also reused, and the dictionary
// strings, shared by every record that carries them.
type Scanner struct {
	next func() ([]byte, error) // yields CRC-verified block payloads; nil at end

	hwDict  []failures.HWType
	detDict []string
	// dictFixed marks dictionaries preloaded from a footer (File
	// scans): block dictionary deltas are then skipped, not appended,
	// since skipped blocks may already have contributed entries.
	dictFixed bool

	// fromN and toInc are the inclusive scan window bounds; see
	// scanBounds.
	fromN, toInc int64
	batch        []failures.Record // the current decoded block
	i            int               // Scan's cursor into batch
	rec          failures.Record
	scanned      int
	err          error
	done         bool
}

// NewScanner reads a binary trace sequentially from r — a file, a pipe,
// anything — without needing random access: dictionaries build
// incrementally from the per-block deltas and the footer is only used
// to confirm the file is complete. The reader must be positioned at the
// start of the trace.
func NewScanner(r io.Reader, opts ScanOptions) (*Scanner, error) {
	if err := readHeader(r); err != nil {
		return nil, err
	}
	s := newScanner(opts, false)
	var buf []byte
	s.next = func() ([]byte, error) {
		kind, payload, err := readFrame(r, &buf)
		if err != nil {
			return nil, err
		}
		switch kind {
		case frameBlock:
			return payload, nil
		case frameFooter:
			// The stream ends here; verify the trailer and EOF so a
			// truncated or over-long file cannot pass silently.
			var tr [trailerSize]byte
			if _, err := io.ReadFull(r, tr[:]); err != nil {
				return nil, fmt.Errorf("%w: reading trailer: %v", ErrTruncated, err)
			}
			if _, err := parseTrailer(tr); err != nil {
				return nil, err
			}
			if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				return nil, fmt.Errorf("%w: data after trailer", ErrFormat)
			}
			return nil, nil
		default:
			return nil, fmt.Errorf("%w: unknown frame kind %d", ErrFormat, kind)
		}
	}
	return s, nil
}

// parseTrailer verifies the trailer magic and returns the footer offset
// the trailer records.
func parseTrailer(tr [trailerSize]byte) (int64, error) {
	if string(tr[8:]) != trailerMagic {
		return 0, fmt.Errorf("%w: bad trailer magic %q (file truncated or not Closed)", ErrBadMagic, tr[8:])
	}
	return int64(le.Uint64(tr[:])), nil
}

// readHeader consumes and verifies the file header. An input that ends
// inside the header but matches the magic as far as it goes is a
// truncated trace (ErrTruncated), not a foreign file (ErrBadMagic) —
// SniffMagic would have said yes to the same prefix.
func readHeader(r io.Reader) error {
	var hdr [headerSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if (err == io.EOF || err == io.ErrUnexpectedEOF) &&
			n > 0 && string(hdr[:min(n, len(magic))]) == magic[:min(n, len(magic))] {
			return fmt.Errorf("%w: file ends inside the %d-byte header", ErrTruncated, headerSize)
		}
		return fmt.Errorf("%w: reading header: %v", ErrBadMagic, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadMagic, hdr[:len(magic)])
	}
	if v := le.Uint16(hdr[len(magic):]); v != Version {
		return fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	return nil
}

func newScanner(opts ScanOptions, dictFixed bool) *Scanner {
	s := &Scanner{dictFixed: dictFixed}
	s.fromN, s.toInc = scanBounds(opts)
	return s
}

// scanBounds converts a ScanOptions window to inclusive epoch-nanosecond
// bounds: a record matches iff fromN <= startN <= toInc. Open ends map
// to MinInt64/MaxInt64, so a fully open scan admits every representable
// start time including math.MaxInt64 (a half-open upper bound cannot
// express that). An impossible window — To at or before the epoch
// range, or From beyond it — collapses to the empty sentinel
// (MaxInt64, MinInt64), which no start time satisfies.
func scanBounds(opts ScanOptions) (fromN, toInc int64) {
	fromN, toInc = math.MinInt64, math.MaxInt64
	if !opts.From.IsZero() {
		if n, err := epochNanos(opts.From, "range from"); err == nil {
			fromN = n
		} else if opts.From.Unix() > 0 {
			// Beyond the representable range: nothing can match.
			return math.MaxInt64, math.MinInt64
		}
		// From before the representable range stays fully open.
	}
	if !opts.To.IsZero() {
		if n, err := epochNanos(opts.To, "range to"); err == nil {
			if n == math.MinInt64 {
				return math.MaxInt64, math.MinInt64
			}
			toInc = n - 1 // [From, To) excludes To itself
		} else if opts.To.Unix() < 0 {
			return math.MaxInt64, math.MinInt64
		}
		// To beyond the representable range stays fully open.
	}
	return fromN, toInc
}

// readFrame reads one frame from r into *buf (grown as needed, reused
// across calls) and returns its kind and CRC-verified payload.
func readFrame(r io.Reader, buf *[]byte) (byte, []byte, error) {
	var hdr [frameSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: file ends before the footer", ErrTruncated)
		}
		return 0, nil, fmt.Errorf("tracefmt: read frame: %w", err)
	}
	n := int(le.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d bytes exceeds the %d cap", ErrFormat, n, maxFramePayload)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	if got, want := crc32Checksum(p), le.Uint32(hdr[5:]); got != want {
		return 0, nil, fmt.Errorf("%w: payload CRC %08x, frame says %08x", ErrChecksum, got, want)
	}
	return hdr[0], p, nil
}

// parseBlock validates a block payload's prefix and dictionary-delta
// section and returns the record count, the block's start-time bounds
// and the offset of the column section. When appendDicts is true the
// delta entries are appended to *hwDict / *detDict (sequential stream
// decode); otherwise they are skipped unread, because the caller's
// dictionaries were preloaded from the footer and skipped blocks may
// already have contributed entries.
func parseBlock(p []byte, hwDict *[]failures.HWType, detDict *[]string, appendDicts bool) (n int, minStart, maxStart int64, colOff int, err error) {
	r := binx.NewReader(p, ErrFormat)
	n = int(r.U32())
	minStart = int64(r.U64())
	maxStart = int64(r.U64())
	nHW := int(r.U16())
	for i := 0; i < nHW && r.Err() == nil; i++ {
		b := r.Bytes(int(r.U16()))
		if appendDicts && r.Err() == nil {
			if len(*hwDict) >= maxHWDict {
				return 0, 0, 0, 0, fmt.Errorf("%w: hardware dictionary overflow", ErrFormat)
			}
			*hwDict = append(*hwDict, failures.HWType(b))
		}
	}
	nDet := int(r.U32())
	if nDet > maxDetailDict {
		return 0, 0, 0, 0, fmt.Errorf("%w: detail dictionary count %d", ErrFormat, nDet)
	}
	for i := 0; i < nDet && r.Err() == nil; i++ {
		b := r.Bytes(int(r.U16()))
		if appendDicts && r.Err() == nil {
			if len(*detDict) >= maxDetailDict {
				return 0, 0, 0, 0, fmt.Errorf("%w: detail dictionary overflow", ErrFormat)
			}
			*detDict = append(*detDict, string(b))
		}
	}
	if err := r.Err(); err != nil {
		return 0, 0, 0, 0, err
	}
	if n < 0 || n > maxFramePayload/recordWidth {
		return 0, 0, 0, 0, fmt.Errorf("%w: block record count %d", ErrFormat, n)
	}
	if want := r.Offset() + n*recordWidth; want != len(p) {
		return 0, 0, 0, 0, fmt.Errorf("%w: block is %d bytes, columns need %d", ErrFormat, len(p), want)
	}
	return n, minStart, maxStart, r.Offset(), nil
}

// decodeColumns appends the n records of a block's column section
// (starting at colOff in p) to dst, keeping only start times inside the
// inclusive [fromN, toInc] window. The dictionaries
// must already contain every index the block references.
func decodeColumns(p []byte, colOff, n int, hwDict []failures.HWType, detDict []string, fromN, toInc int64, dst []failures.Record) ([]failures.Record, error) {
	oStart := colOff
	oEnd := oStart + 8*n
	oSys := oEnd + 8*n
	oNod := oSys + 4*n
	oHW := oNod + 4*n
	oWL := oHW + 2*n
	oCause := oWL + n
	oDet := oCause + n
	for i := 0; i < n; i++ {
		startN := int64(le.Uint64(p[oStart+8*i:]))
		if startN < fromN || startN > toInc {
			continue
		}
		endD := int64(le.Uint64(p[oEnd+8*i:]))
		hw := int(le.Uint16(p[oHW+2*i:]))
		det := int(le.Uint32(p[oDet+4*i:]))
		if hw >= len(hwDict) || det >= len(detDict) {
			return dst, fmt.Errorf("%w: dictionary index out of range (hw %d/%d, detail %d/%d)",
				ErrFormat, hw, len(hwDict), det, len(detDict))
		}
		dst = append(dst, failures.Record{
			System:   int(int32(le.Uint32(p[oSys+4*i:]))),
			Node:     int(int32(le.Uint32(p[oNod+4*i:]))),
			HW:       hwDict[hw],
			Workload: failures.Workload(p[oWL+i]),
			Cause:    failures.RootCause(p[oCause+i]),
			Detail:   detDict[det],
			Start:    time.Unix(0, startN).UTC(),
			End:      time.Unix(0, startN+endD).UTC(),
		})
	}
	return dst, nil
}

// decodeNext pulls frames until a block holds at least one record in
// the scan window, decodes that block's in-window records into dst[:0]
// and returns them. Blocks whose start-time index lies outside the
// window are skipped after their prefix and dictionary deltas are read.
// It returns (nil, nil) at a clean end of trace.
func (s *Scanner) decodeNext(dst []failures.Record) ([]failures.Record, error) {
	for {
		p, err := s.next()
		if err != nil || p == nil {
			return nil, err
		}
		n, minStart, maxStart, colOff, err := parseBlock(p, &s.hwDict, &s.detDict, !s.dictFixed)
		if err != nil {
			return nil, err
		}
		if !(BlockInfo{MinStart: minStart, MaxStart: maxStart}).overlaps(s.fromN, s.toInc) {
			continue
		}
		dst, err = decodeColumns(p, colOff, n, s.hwDict, s.detDict, s.fromN, s.toInc, dst[:0])
		if err != nil {
			return nil, err
		}
		if len(dst) > 0 {
			return dst, nil
		}
	}
}

// fill decodes the next non-empty block into s.batch and rewinds the
// Scan cursor; false means end of trace or error (both recorded on s).
func (s *Scanner) fill() bool {
	if s.done {
		return false
	}
	batch, err := s.decodeNext(s.batch)
	if batch == nil {
		s.err = err
		s.done = true
		return false
	}
	s.batch, s.i = batch, 0
	return true
}

// Scan advances to the next record in the scan window, reporting false
// at the end of the trace or on the first error (see Err).
func (s *Scanner) Scan() bool {
	if s.i == len(s.batch) && !s.fill() {
		return false
	}
	s.rec = s.batch[s.i]
	s.i++
	s.scanned++
	return true
}

// ScanBatch yields the rest of the current block — every in-window
// record not yet consumed by Scan — or, at a block boundary, the next
// non-empty decoded block. It returns (nil, nil) at a clean end of
// trace. The returned slice is valid until the next ScanBatch or Scan
// call. Together with Scan/Record/Err this makes Scanner an
// engine.BatchSource, so the fused pipeline folds whole blocks into its
// streaming shards per dispatch.
func (s *Scanner) ScanBatch() ([]failures.Record, error) {
	if s.i == len(s.batch) && !s.fill() {
		return nil, s.err
	}
	b := s.batch[s.i:]
	s.i = len(s.batch)
	s.scanned += len(b)
	s.rec = b[len(b)-1]
	return b, nil
}

// Record returns the record produced by the last successful Scan (after
// ScanBatch: the last record of the batch).
func (s *Scanner) Record() failures.Record { return s.rec }

// Scanned returns how many records have been yielded.
func (s *Scanner) Scanned() int { return s.scanned }

// Err returns the error that stopped the scan, if any. A clean end of
// trace is not an error.
func (s *Scanner) Err() error { return s.err }

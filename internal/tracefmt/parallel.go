package tracefmt

import (
	"io"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
)

// freeList recycles buffers without ever blocking: get returns the zero
// value when the list is empty and put drops the buffer when it is
// full. A par.Pipe's Close discards the jobs in flight together with
// their buffers, so a list that blocked until buffers came back could
// wait forever.
type freeList[T any] chan T

func (f freeList[T]) get() (v T) {
	select {
	case v = <-f:
	default:
	}
	return v
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// decBatch is one block on its way through a ParallelScanner: its index
// entry in, its in-window records (or the error that stopped the scan)
// out. Batches and their record buffers cycle through the scanner's
// free list.
type decBatch struct {
	info BlockInfo
	recs []failures.Record
	err  error
}

// ParallelScanner yields the records of a binary trace in the same
// order as Scanner — byte-identical analysis results at any worker
// count — while the decode work runs ahead on a par.Pipe. It implements
// the engine.RecordSource shape (Scan/Record/Err) and ScanBatch
// (engine.BatchSource), which is the intended way to consume it: one
// whole decoded block per call, no per-record hand-off.
//
// Record buffers are pooled: the batches the consumer has moved past
// return to a free list the producer draws from, so steady-state
// decoding allocates only when a block outgrows its reused buffer.
// Close releases the goroutines early; letting the scan run to its end
// (or first error) releases them too.
type ParallelScanner struct {
	pipe  *par.Pipe[*decBatch, *decBatch]
	free  freeList[*decBatch]
	batch *decBatch // the batch cur belongs to

	cur     []failures.Record
	i       int
	rec     failures.Record
	err     error
	done    bool
	scanned int
}

// freeBatch returns a recycled batch, or a new one when none is free.
func (p *ParallelScanner) freeBatch() *decBatch {
	if d := p.free.get(); d != nil {
		return d
	}
	return &decBatch{}
}

// ScanParallel scans the trace with a pool of block-decode workers over
// the footer index: the pipe's feeder walks the index in order,
// skipping blocks the time window cannot touch (they are never read),
// and the pipe hands decoded blocks back strictly in index order no
// matter which worker finishes first. workers <= 0 uses GOMAXPROCS. At
// most workers+2 blocks are decoded or waiting, the consumer's current
// one included (see DESIGN.md, "Worker pools"). The returned scanner
// yields exactly the records of f.Scan(opts), in the same order.
func (f *File) ScanParallel(opts ScanOptions, workers int) *ParallelScanner {
	workers = par.Workers(workers, len(f.blocks))
	window := workers + 2
	fromN, toInc := scanBounds(opts)
	p := &ParallelScanner{free: make(freeList[*decBatch], window)}
	// At most workers decodes run at once, so this many frame buffers
	// are all any of them waits for.
	frames := make(freeList[[]byte], workers)
	i := 0
	next := func() (*decBatch, bool) {
		for i < len(f.blocks) {
			b := f.blocks[i]
			i++
			if b.overlaps(fromN, toInc) {
				d := p.freeBatch()
				d.info = b
				return d, true
			}
		}
		return nil, false
	}
	p.pipe = par.NewPipe(workers, window, next, func(d *decBatch) *decBatch {
		frame := frames.get()
		d.recs, frame, d.err = f.decodeBlockAt(d.info, frame, fromN, toInc, d.recs[:0])
		frames.put(frame)
		return d
	})
	return p
}

// NewScannerParallel is the streaming variant of ScanParallel for
// inputs without random access (pipes, network streams): the pipe's
// feeder runs a NewScanner over r, read-ahead-decoding up to four
// blocks — frame read, CRC, dictionary deltas, column decode — while
// the consumer drains the current one. Block-skipping windows still
// apply (a skipped block costs only its prefix parse). The record order
// and error behaviour match NewScanner exactly.
func NewScannerParallel(r io.Reader, opts ScanOptions) (*ParallelScanner, error) {
	sc, err := NewScanner(r, opts)
	if err != nil {
		return nil, err
	}
	const window = 4
	p := &ParallelScanner{free: make(freeList[*decBatch], window)}
	failed := false
	next := func() (*decBatch, bool) {
		if failed {
			return nil, false
		}
		d := p.freeBatch()
		recs, err := sc.decodeNext(d.recs)
		if recs == nil && err == nil {
			return nil, false
		}
		d.recs, d.err = recs, err
		failed = err != nil
		return d, true
	}
	// Decoding a stream is sequential, so it happens in next; the one
	// worker only passes the blocks along.
	p.pipe = par.NewPipe(1, window, next, func(d *decBatch) *decBatch { return d })
	return p, nil
}

// nextBatch recycles the drained batch and blocks until the next
// non-empty one is decoded; nil means end of scan (p.err says whether
// it was clean). On error it shuts the pipeline down before returning.
func (p *ParallelScanner) nextBatch() []failures.Record {
	p.cur, p.i = nil, 0
	for !p.done {
		if p.batch != nil {
			p.free.put(p.batch)
		}
		d, ok := p.pipe.Next()
		p.batch = d
		switch {
		case !ok:
			p.done = true
		case d.err != nil:
			p.err = d.err
			p.Close()
		case len(d.recs) > 0:
			p.cur = d.recs
			p.scanned += len(d.recs)
			return d.recs
		}
	}
	return nil
}

// Scan advances to the next record, reporting false at the end of the
// scan or on the first error (see Err).
func (p *ParallelScanner) Scan() bool {
	for {
		if p.i < len(p.cur) {
			p.rec = p.cur[p.i]
			p.i++
			return true
		}
		if p.nextBatch() == nil {
			return false
		}
	}
}

// ScanBatch yields the in-window records of the next block (or the
// unconsumed rest of the current one, if Scan was used mid-block),
// returning (nil, nil) at a clean end of scan. The slice is valid until
// the next ScanBatch or Scan call.
func (p *ParallelScanner) ScanBatch() ([]failures.Record, error) {
	if p.i < len(p.cur) {
		b := p.cur[p.i:]
		p.i = len(p.cur)
		p.rec = b[len(b)-1]
		return b, nil
	}
	b := p.nextBatch()
	if b == nil {
		return nil, p.err
	}
	p.i = len(b)
	p.rec = b[len(b)-1]
	return b, nil
}

// Record returns the record produced by the last successful Scan (after
// ScanBatch: the last record of the batch).
func (p *ParallelScanner) Record() failures.Record { return p.rec }

// Scanned returns how many in-window records have been decoded and
// handed to the consumer so far.
func (p *ParallelScanner) Scanned() int { return p.scanned }

// Err returns the error that stopped the scan, if any. A clean end of
// trace is not an error.
func (p *ParallelScanner) Err() error { return p.err }

// Close releases the scanner's goroutines without waiting for the scan
// to finish. It is a no-op after the scan has already ended and always
// safe to defer; records decoded but not yet consumed are discarded.
func (p *ParallelScanner) Close() error {
	p.pipe.Close()
	p.done = true
	p.cur, p.i = nil, 0
	return nil
}

package tracefmt

import (
	"io"
	"runtime"
	"sync"

	"hpcfail/internal/failures"
)

// decBatch carries one decoded block from a producer to the consumer.
// Batches arrive on the out channel in block order; ready is closed
// once recs and err are final, so the consumer can wait for a specific
// block while later blocks are still being decoded.
type decBatch struct {
	info  BlockInfo
	recs  []failures.Record
	err   error
	ready chan struct{}
}

// closedChan is the pre-closed ready channel of the streaming
// read-ahead producer, whose batches are final at publication time.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ParallelScanner yields the records of a binary trace in the same
// order as Scanner — byte-identical analysis results at any worker
// count — while the decode work runs ahead on other goroutines. It
// implements the engine.RecordSource shape (Scan/Record/Err) and
// ScanBatch (engine.BatchSource), which is the intended way to consume
// it: one whole decoded block per call, no per-record hand-off.
//
// Record buffers are pooled: a fixed set of slices cycles between the
// producers and the consumer, so steady-state decoding allocates only
// when a block outgrows its reused buffer. Close releases the worker
// goroutines early; letting the scan run to its end (or first error)
// releases them too.
type ParallelScanner struct {
	out  chan *decBatch         // producer → consumer, block order
	free chan []failures.Record // recycled record buffers
	stop chan struct{}

	stopOnce sync.Once
	drained  bool

	cur     []failures.Record
	i       int
	rec     failures.Record
	err     error
	done    bool
	scanned int
}

func newParallelScanner(inflight int) *ParallelScanner {
	p := &ParallelScanner{
		out:  make(chan *decBatch, inflight),
		free: make(chan []failures.Record, inflight),
		stop: make(chan struct{}),
	}
	for i := 0; i < inflight; i++ {
		p.free <- nil
	}
	return p
}

// ScanParallel scans the trace with a pool of block-decode workers over
// the footer index: a dispatcher walks the index in order, skipping
// blocks the time window cannot touch (they are never read), and
// publishes each remaining block to the consumer before handing it to
// the pool, so blocks re-emit strictly in index order no matter which
// worker finishes first. workers <= 0 uses GOMAXPROCS. The returned
// scanner yields exactly the records of f.Scan(opts), in the same
// order.
func (f *File) ScanParallel(opts ScanOptions, workers int) *ParallelScanner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(f.blocks); n > 0 && workers > n {
		workers = n
	}
	fromN, toInc := scanBounds(opts)
	inflight := workers + 2
	p := newParallelScanner(inflight)
	work := make(chan *decBatch, inflight)

	// Dispatcher: the free channel is both the buffer pool and the
	// backpressure bound — at most inflight blocks are decoded ahead
	// of the consumer. Because order-publication (out) and decode
	// hand-off (work) both have capacity inflight and every batch
	// holds a free token, neither send can block; the dispatcher only
	// ever waits on free or stop.
	go func() {
		defer close(work)
		defer close(p.out)
		for _, b := range f.blocks {
			if !b.overlaps(fromN, toInc) {
				continue
			}
			var buf []failures.Record
			select {
			case buf = <-p.free:
			case <-p.stop:
				return
			}
			d := &decBatch{info: b, recs: buf, ready: make(chan struct{})}
			p.out <- d
			work <- d
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			var frameBuf []byte
			for d := range work {
				d.recs, frameBuf, d.err = f.decodeBlockAt(d.info, frameBuf, fromN, toInc, d.recs[:0])
				close(d.ready)
			}
		}()
	}
	return p
}

// NewScannerParallel is the streaming variant of ScanParallel for
// inputs without random access (pipes, network streams): a single
// producer goroutine runs a NewScanner over r, read-ahead-decoding the
// next blocks — frame read, CRC, dictionary deltas, column decode —
// while the consumer drains the current one. Block-skipping windows
// still apply (a skipped block costs only its prefix parse). The record
// order and error behaviour match NewScanner exactly.
func NewScannerParallel(r io.Reader, opts ScanOptions) (*ParallelScanner, error) {
	sc, err := NewScanner(r, opts)
	if err != nil {
		return nil, err
	}
	const inflight = 4
	p := newParallelScanner(inflight)
	go func() {
		defer close(p.out)
		for {
			var buf []failures.Record
			select {
			case buf = <-p.free:
			case <-p.stop:
				return
			}
			recs, err := sc.decodeNext(buf)
			if recs == nil && err == nil {
				return
			}
			select {
			case p.out <- &decBatch{recs: recs, err: err, ready: closedChan}:
			case <-p.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return p, nil
}

// nextBatch recycles the drained batch and blocks until the next
// non-empty one is decoded; nil means end of scan (p.err says whether
// it was clean). On error it shuts the pipeline down before returning.
func (p *ParallelScanner) nextBatch() []failures.Record {
	if p.done || p.err != nil {
		return nil
	}
	if p.cur != nil {
		p.recycle(p.cur)
		p.cur = nil
	}
	for {
		d, ok := <-p.out
		if !ok {
			p.done = true
			return nil
		}
		<-d.ready
		if d.err != nil {
			p.err = d.err
			p.done = true
			p.recycle(d.recs)
			p.shutdown()
			return nil
		}
		if len(d.recs) == 0 {
			p.recycle(d.recs)
			continue
		}
		p.cur = d.recs
		p.i = 0
		p.scanned += len(d.recs)
		return d.recs
	}
}

func (p *ParallelScanner) recycle(buf []failures.Record) {
	select {
	case p.free <- buf[:0]:
	default:
	}
}

// shutdown stops the producers and drains every in-flight batch, so no
// worker is left blocked on a channel. Idempotent.
func (p *ParallelScanner) shutdown() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.drained {
		return
	}
	p.drained = true
	for d := range p.out {
		<-d.ready
	}
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
	p.shutdown()
	p.done = true
	p.cur = nil
	p.i = 0
	return nil
}

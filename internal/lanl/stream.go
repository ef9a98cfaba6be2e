package lanl

import (
	"errors"
	"fmt"

	"hpcfail/internal/failures"
)

// This file is the streaming face of the generator: records flow to the
// consumer as they are produced, so writing a trace to CSV or feeding
// engine.AnalyzeStream never materializes the full dataset. Generation
// runs ahead on the worker pool while the consumer drains, with at most
// Workers system blocks in flight — peak memory is bounded by the
// largest few systems, independent of RateScale or trace length.
//
// Records arrive grouped by system in catalog order, each group sorted
// by start time — the same order lanlgen's stream mode documents. A
// globally time-sorted stream would require buffering every system
// (the first records of the fleet interleave across all 22 machines),
// which is exactly the materialization streaming exists to avoid;
// consumers that need global order load the CSV through
// failures.ReadCSV, which re-sorts, and the per-system shards of
// engine.AnalyzeStream are insensitive to cross-system order.

// errStreamClosed aborts the producer when a RecordStream consumer
// closes early; it never escapes to callers.
var errStreamClosed = errors.New("lanl: record stream closed")

// GenerateStream produces the configured trace record by record, calling
// emit for each one. Records within a system are sorted by start time
// and systems arrive in catalog order; the concatenation of the emitted
// sequence therefore rebuilds Generate()'s dataset exactly (the property
// tests assert this record for record). emit runs on the caller's
// goroutine; returning a non-nil error stops generation and propagates
// the error.
func (g *Generator) GenerateStream(emit func(failures.Record) error) error {
	if len(g.cfg.Catalog) > 0 {
		if err := ValidateCatalog(g.cfg.Catalog); err != nil {
			return err
		}
	}
	return g.generateStreamParallel(g.systemTasks(), emit)
}

// streamBlock is one system's pending output in the parallel stream.
type streamBlock struct {
	records []failures.Record
	err     error
	done    chan struct{}
}

// generateStreamParallel overlaps generation with consumption: workers
// fill system blocks while the caller drains them in catalog order. The
// token semaphore caps how many blocks exist at once (completed but
// undrained blocks hold their token until consumed), bounding memory at
// Workers system blocks regardless of trace size. At one worker it
// generates the systems one after another, the sequence the multi-worker
// runs must reproduce.
func (g *Generator) generateStreamParallel(tasks []systemTask, emit func(failures.Record) error) error {
	w := g.workers(len(tasks))
	blocks := make([]*streamBlock, len(tasks))
	for i := range blocks {
		blocks[i] = &streamBlock{done: make(chan struct{})}
	}
	work := make(chan int)
	tokens := make(chan struct{}, w)
	stop := make(chan struct{})
	defer close(stop)

	// Dispatcher: admit a system only when a token is free, so at most w
	// blocks are materialized; abandoned on stop.
	go func() {
		defer close(work)
		for i := range tasks {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case work <- i:
			case <-stop:
				return
			}
		}
	}()
	for k := 0; k < w; k++ {
		go func() {
			for i := range work {
				b := blocks[i]
				b.records, b.err = g.generateSystem(tasks[i].sys, tasks[i].src)
				close(b.done)
			}
		}()
	}
	for i, b := range blocks {
		<-b.done
		if b.err != nil {
			return fmt.Errorf("generate system %d: %w", tasks[i].sys.ID, b.err)
		}
		for _, r := range b.records {
			if err := emit(r); err != nil {
				return err
			}
		}
		b.records = nil
		<-tokens // block drained: admit the next system
	}
	return nil
}

// A RecordStream adapts GenerateStream to the pull-based
// failures.RecordSource shape engine.AnalyzeStream consumes: Scan/Record
// iterate the same record sequence GenerateStream emits, with generation
// running ahead on a background goroutine. Close releases the producer
// if the consumer stops early; a fully drained stream cleans up itself.
type RecordStream struct {
	recs   chan failures.Record
	errc   chan error
	stop   chan struct{}
	cur    failures.Record
	err    error
	closed bool
}

// Stream starts generation and returns the record iterator.
func (g *Generator) Stream() *RecordStream {
	s := &RecordStream{
		recs: make(chan failures.Record, 256),
		errc: make(chan error, 1),
		stop: make(chan struct{}),
	}
	go func() {
		err := g.GenerateStream(func(r failures.Record) error {
			select {
			case s.recs <- r:
				return nil
			case <-s.stop:
				return errStreamClosed
			}
		})
		if err != nil && !errors.Is(err, errStreamClosed) {
			s.errc <- err
		}
		close(s.recs)
	}()
	return s
}

// Scan advances to the next record, returning false at the end of the
// trace or on error.
func (s *RecordStream) Scan() bool {
	if s.err != nil || s.closed {
		return false
	}
	r, ok := <-s.recs
	if !ok {
		select {
		case err := <-s.errc:
			s.err = err
		default:
		}
		return false
	}
	s.cur = r
	return true
}

// Record returns the record Scan advanced to.
func (s *RecordStream) Record() failures.Record { return s.cur }

// Err returns the first generation error, if any.
func (s *RecordStream) Err() error { return s.err }

// Close stops the producer without draining the remaining records. It is
// safe to call multiple times and after exhaustion.
func (s *RecordStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.stop)
	// Unblock a producer mid-send and let it observe stop.
	for range s.recs {
	}
}

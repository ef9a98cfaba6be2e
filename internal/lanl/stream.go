package lanl

import (
	"fmt"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
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

// GenerateStream produces the configured trace record by record, calling
// emit for each one. Records within a system are sorted by start time
// and systems arrive in catalog order; the concatenation of the emitted
// sequence therefore rebuilds Generate()'s dataset exactly (the property
// tests assert this record for record). emit runs on the caller's
// goroutine; returning a non-nil error stops generation and propagates
// the error. GenerateStream returns only after every generator goroutine
// has exited.
func (g *Generator) GenerateStream(emit func(failures.Record) error) error {
	s := g.Stream()
	defer s.Close()
	for s.Scan() {
		if err := emit(s.Record()); err != nil {
			return err
		}
	}
	return s.Err()
}

// systemBlock is one system's generated output.
type systemBlock struct {
	records []failures.Record
	err     error
}

// systems generates the tasks' systems on the worker pool and returns
// their blocks in catalog order, with at most window blocks generating
// or waiting to be consumed at once (see DESIGN.md, "Worker pools").
func (g *Generator) systems(tasks []systemTask, window int) *par.Pipe[systemTask, systemBlock] {
	i := 0
	next := func() (systemTask, bool) {
		if i == len(tasks) {
			return systemTask{}, false
		}
		i++
		return tasks[i-1], true
	}
	return par.NewPipe(g.cfg.Workers, window, next, func(t systemTask) systemBlock {
		records, err := g.generateSystem(t.sys, t.src)
		if err != nil {
			err = fmt.Errorf("generate system %d: %w", t.sys.ID, err)
		}
		return systemBlock{records, err}
	})
}

// A RecordStream adapts the generator to the pull-based
// failures.RecordSource shape engine.AnalyzeStream consumes: Scan/Record
// iterate the same record sequence GenerateStream emits, walking one
// system block at a time while the next Workers systems generate ahead.
// Close releases the generator goroutines if the consumer stops early; a
// fully drained stream releases them itself.
type RecordStream struct {
	pipe *par.Pipe[systemTask, systemBlock]
	cur  []failures.Record
	i    int
	rec  failures.Record
	err  error
}

// Stream starts generation and returns the record iterator.
func (g *Generator) Stream() *RecordStream {
	if len(g.cfg.Catalog) > 0 {
		if err := ValidateCatalog(g.cfg.Catalog); err != nil {
			return &RecordStream{err: err}
		}
	}
	tasks := g.systemTasks()
	return &RecordStream{pipe: g.systems(tasks, par.Workers(g.cfg.Workers, len(tasks)))}
}

// Scan advances to the next record, returning false at the end of the
// trace or on error.
func (s *RecordStream) Scan() bool {
	for s.i == len(s.cur) {
		// Drop the drained block before waiting, so it is not kept
		// alive while the next one generates.
		s.cur, s.i = nil, 0
		if s.err != nil || s.pipe == nil {
			return false
		}
		b, ok := s.pipe.Next()
		if !ok {
			return false
		}
		if b.err != nil {
			s.err = b.err
			s.Close()
			return false
		}
		s.cur, s.i = b.records, 0
	}
	s.rec = s.cur[s.i]
	s.i++
	return true
}

// Record returns the record Scan advanced to.
func (s *RecordStream) Record() failures.Record { return s.rec }

// Err returns the first generation error, if any.
func (s *RecordStream) Err() error { return s.err }

// Close stops generation without draining the remaining records and
// returns once the generator goroutines have exited. It is safe to call
// multiple times and after exhaustion.
func (s *RecordStream) Close() {
	if s.pipe != nil {
		s.pipe.Close()
	}
	s.cur, s.i = nil, 0
}

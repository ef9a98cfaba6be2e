package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/tracefmt"
)

// params sizes the workloads. defaultParams is the benchmark; tests
// shrink it.
type params struct {
	// genScale is the failure-rate scale of the gen_write and
	// scan_analyze trace (100 gives about 2.1M records).
	genScale float64
	// fitScale is the scale of the fit_ci dataset (1 is the paper-sized
	// seed dataset, about 23k records).
	fitScale float64
	// fitReps is fit_ci's bootstrap B, the reproduce/failstat default.
	fitReps int
	// setups is how many times a run sets up at least, and setupSeconds
	// how long it keeps setting up at least; setup_s is the median.
	setups       int
	setupSeconds float64
	// probeRecords caps the records the traced layer probes use.
	probeRecords int
	serve        serveParams
}

func defaultParams() params {
	return params{
		genScale:     100,
		fitScale:     1,
		fitReps:      100,
		setups:       5,
		setupSeconds: 1,
		probeRecords: 50000,
		serve:        defaultServeParams(),
	}
}

// scanSpec is scan_analyze's analysis: fleet and per-system shards,
// default families, no bootstrap intervals (the engine runs with B < 0).
var scanSpec = engine.ShardSpec{IncludeFleet: true}

// fitSpec is fit_ci's analysis, the reproduce/failstat fleet sweep.
var fitSpec = engine.ShardSpec{
	IncludeFleet: true,
	CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
}

// timeSetups runs setup at least r.cfg.p.setups times and for at least
// r.cfg.p.setupSeconds, and reports the median as setup_s: a set-up of a
// fraction of a millisecond needs many samples for a steady median.
func timeSetups(r *run, setup func() error) error {
	var ts []float64
	start := time.Now()
	for len(ts) < r.cfg.p.setups || time.Since(start).Seconds() < r.cfg.p.setupSeconds {
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	r.set("setup_s", median(ts))
	r.logf("setup: %d runs, median %.4f s", len(ts), median(ts))
	return nil
}

// repeat calls rep until budget has elapsed, at least once.
func repeat(budget time.Duration, rep func() error) error {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

// budgets splits a run's measured seconds: an untraced run measures for
// all of them; a traced run spends half untraced (the base of
// trace.overhead_frac) and half traced.
func budgets(r *run) (untraced, traced time.Duration) {
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		return total / 2, total / 2
	}
	return total, 0
}

// measureUntraced runs the untraced loop. Before each rep it returns
// freed memory to the OS and resets VmHWM, so every rep starts from a
// heap like a fresh process's and its peak charges neither set-up nor
// another rep. peak_rss_mb is the smallest of the reps' peaks: how much
// garbage the collector has yet to reclaim when a rep peaks varies from
// rep to rep, which splits gen_write's peaks into two modes about 100 MiB
// apart in proportions that differ by seed, while the smallest peak
// stays within a few percent.
func measureUntraced(r *run, budget time.Duration, rep func() error) error {
	var rss peakRSS
	var peaks []float64
	err := repeat(budget, func() error {
		rss.reset()
		if err := rep(); err != nil {
			return err
		}
		mb, err := rss.mb()
		peaks = append(peaks, mb)
		return err
	})
	if err != nil {
		return err
	}
	if !rss.resetOK {
		r.logf("note: /proc/self/clear_refs unavailable; peak_rss_mb includes set-up")
	}
	r.set("peak_rss_mb", sortedCopy(peaks)[0])
	r.logf("peak RSS per run (MiB): %.1f", peaks)
	return nil
}

// reportLatencies sets the latency metrics of a batch workload. Each rep
// is one result (reps, in s) and one ingest: the time until the whole
// input had been consumed (ingestMs).
func reportLatencies(r *run, reps, ingestMs []float64) {
	var ingest, results latencies
	for i := range reps {
		ingest = append(ingest, []float64{ingestMs[i]})
		results = append(results, []float64{reps[i] * 1000})
	}
	setLatencies(r, ingest, results)
	r.set("result_s", median(reps))
	r.logf("result runs (s): %.4f", reps)
}

// setLatencies sets ok_frac and the four latency metrics.
func setLatencies(r *run, ingest, results latencies) {
	r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted))
	r.set("ingest_p50_ms", ingest.p50())
	v, _ := ingest.tail()
	r.set("ingest_tail_ms", v)
	r.set("result_p50_ms", results.p50())
	v, _ = results.tail()
	r.set("result_tail_ms", v)
	r.logf("ingest (ms): %s", ingest)
	r.logf("result (ms): %s", results)
}

// traced runs the traced loop with a heap sampler and reports the
// runtime and overhead metrics against the untraced median.
func traced(r *run, budget time.Duration, untracedReps []float64, rep func() (float64, error)) error {
	before := totalAllocMB()
	hs := startHeapSampler()
	var ts []float64
	err := repeat(budget, func() error {
		s, err := rep()
		ts = append(ts, s)
		return err
	})
	r.set("runtime.peak_heap_mb", hs.peakMB())
	if err != nil {
		return err
	}
	r.set("runtime.alloc_mb_per_run", (totalAllocMB()-before)/float64(len(ts)))
	r.set("trace.result_s", median(ts))
	r.set("trace.overhead_frac", median(ts)/median(untracedReps))
	r.logf("trace: %d traced runs, median %.4f s; untraced median %.4f s", len(ts), median(ts), median(untracedReps))
	return nil
}

// stage is one row of a traced run's stage table: a layer's self time.
type stage struct {
	name string
	d    time.Duration
}

// printStages prints the stage table of one traced run. The stages
// partition the run's wall clock, so their sum is the traced result_s.
func printStages(r *run, title string, stages []stage) {
	var total time.Duration
	for _, s := range stages {
		total += s.d
	}
	r.logf("stage table (%s): traced result_s %.4f s", title, total.Seconds())
	for _, s := range stages {
		r.logf("  %-28s %9.4f s %6.2f%%", s.name, s.d.Seconds(), 100*s.d.Seconds()/total.Seconds())
	}
}

// ---- gen_write -------------------------------------------------------

func runGenWrite(r *run) error {
	cfg := lanl.Config{Seed: r.cfg.seed, RateScale: r.cfg.p.genScale}
	path := filepath.Join(r.cfg.workDir, "trace.bin")
	var gen *lanl.Generator
	if err := timeSetups(r, func() error {
		gen = lanl.NewGenerator(cfg)
		return createTrace(path)
	}); err != nil {
		return err
	}

	want, err := genWriteReference(cfg)
	if err != nil {
		return err
	}

	untraced, tracedBudget := budgets(r)
	var reps, ingest []float64
	var digests []string
	err = measureUntraced(r, untraced, func() error {
		t := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		ingested, err := writeTrace(gen, f, tracefmt.WriterOptions{})
		ingest = append(ingest, float64(ingested.Sub(t).Nanoseconds())/1e6)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		reps = append(reps, time.Since(t).Seconds())
		d, err := fileDigest(path)
		digests = append(digests, d)
		return err
	})
	if err != nil {
		return err
	}
	for i, d := range digests {
		r.gate(fmt.Sprintf("run %d file sha256 = workers-1/2 reference", i+1), d == want, d)
	}
	r.pinGate("", want)
	reportLatencies(r, reps, ingest)
	if !r.cfg.trace {
		return nil
	}

	var last writeStages
	if err := traced(r, tracedBudget, reps, func() (float64, error) {
		var err error
		last, err = tracedWriteFile(gen, path)
		return last.total().Seconds(), err
	}); err != nil {
		return err
	}
	printStages(r, "gen_write", last.stages)
	setWriteLayers(r, last)
	d, err := fileDigest(path)
	if err != nil {
		return err
	}
	r.gate("traced file sha256 = reference", d == want, d)
	// Decode, fold and fit figures come from one scan of the file this
	// workload wrote.
	ss, err := scanFile(path, r.cfg.seed)
	if err != nil {
		return err
	}
	setScanLayers(r, ss)
	return probeLayers(r, cfg, true)
}

// genWriteReference is the sha256 of the gen_write trace written with
// one generator worker and two encode workers, so the gate also proves
// the bytes do not depend on worker counts.
func genWriteReference(cfg lanl.Config) (string, error) {
	cfg.Workers = 1
	h := sha256.New()
	if _, err := writeTrace(lanl.NewGenerator(cfg), h, tracefmt.WriterOptions{Workers: 2}); err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	return hexSum(h), nil
}

// createTrace creates path and writes an empty trace's header, the
// per-run preparation gen_write repeats before generating.
func createTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tracefmt.NewWriter(f, tracefmt.WriterOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace streams gen into a binary trace on w — the fused
// lanl.GenerateStream → tracefmt.Writer pipeline — and returns when the
// last record had been handed to the writer, before Close sealed it.
func writeTrace(gen *lanl.Generator, w io.Writer, opts tracefmt.WriterOptions) (time.Time, error) {
	tw, err := tracefmt.NewWriter(w, opts)
	if err != nil {
		return time.Time{}, err
	}
	if err := gen.GenerateStream(tw.Write); err != nil {
		return time.Time{}, err
	}
	ingested := time.Now()
	return ingested, tw.Close()
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hexSum(h), nil
}

// writeStages is one traced gen → encode → file run.
type writeStages struct {
	stages  []stage
	encode  time.Duration
	gen     time.Duration
	records int
	bytes   int64
	blocks  int
}

func (w writeStages) total() (t time.Duration) {
	for _, s := range w.stages {
		t += s.d
	}
	return t
}

// tracedWriteFile runs the gen_write pipeline with block-granular
// timers: the generator hands records to a buffer, and each full block
// goes to tracefmt.Writer.Write inside one timed region. Encode time is
// those regions plus Close; generation is the rest of GenerateStream.
func tracedWriteFile(gen *lanl.Generator, path string) (writeStages, error) {
	var ws writeStages
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return ws, err
	}
	defer f.Close()
	tw, err := tracefmt.NewWriter(f, tracefmt.WriterOptions{})
	if err != nil {
		return ws, err
	}
	t1 := time.Now()
	buf := make([]failures.Record, 0, tracefmt.DefaultBlockRecords)
	flush := func() error {
		s := time.Now()
		for i := range buf {
			if err := tw.Write(buf[i]); err != nil {
				return err
			}
		}
		ws.encode += time.Since(s)
		ws.records += len(buf)
		buf = buf[:0]
		return nil
	}
	err = gen.GenerateStream(func(rec failures.Record) error {
		buf = append(buf, rec)
		if len(buf) == cap(buf) {
			return flush()
		}
		return nil
	})
	if err != nil {
		return ws, err
	}
	if err := flush(); err != nil {
		return ws, err
	}
	s := time.Now()
	if err := tw.Close(); err != nil {
		return ws, err
	}
	t2 := time.Now()
	ws.encode += t2.Sub(s)
	if err := f.Close(); err != nil {
		return ws, err
	}
	t3 := time.Now()
	ws.gen = t2.Sub(t1) - ws.encode
	ws.stages = []stage{
		{"os+tracefmt.NewWriter", t1.Sub(t0)},
		{"lanl.GenerateStream", ws.gen},
		{"tracefmt.Writer", ws.encode},
		{"os.File.Close", t3.Sub(t2)},
	}
	st, err := os.Stat(path)
	if err != nil {
		return ws, err
	}
	ws.bytes = st.Size()
	tf, err := tracefmt.OpenFile(path)
	if err != nil {
		return ws, err
	}
	ws.blocks = len(tf.Blocks())
	return ws, tf.Close()
}

func setWriteLayers(r *run, ws writeStages) {
	n := float64(ws.records)
	r.set("lanl.gen_ns_per_record", float64(ws.gen.Nanoseconds())/n)
	r.set("tracefmt.encode_ns_per_record", float64(ws.encode.Nanoseconds())/n)
	r.set("tracefmt.bytes_per_record", float64(ws.bytes)/n)
	r.set("tracefmt.blocks", float64(ws.blocks))
}

// ---- scan_analyze ----------------------------------------------------

// timedSource wraps the trace scanner handed to engine.AnalyzeStream and
// timestamps every ScanBatch call: the time inside is decode, the time
// between calls is the engine's fold of the previous block, and the
// time after the final (empty) return is the fit phase.
type timedSource struct {
	*tracefmt.Scanner
	decode  time.Duration
	end     time.Time
	blocks  int
	records int
}

func (s *timedSource) ScanBatch() ([]failures.Record, error) {
	t := time.Now()
	b, err := s.Scanner.ScanBatch()
	e := time.Now()
	s.decode += e.Sub(t)
	if len(b) > 0 {
		s.blocks++
		s.records += len(b)
	} else {
		s.end = e
	}
	return b, err
}

// scanStages is one traced file → decode → fold → fit run.
type scanStages struct {
	stages      []stage
	decode      time.Duration
	fold        time.Duration
	fit         time.Duration
	records     int
	blocks      int
	hits, miss  uint64
	ingest      time.Duration // open to the final ScanBatch return
	wall        time.Duration
	fleetDigest string
}

// scanFile runs the scan_analyze pipeline on path with a fresh engine.
func scanFile(path string, seed int64) (scanStages, error) {
	var ss scanStages
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return ss, err
	}
	defer f.Close()
	sc, err := tracefmt.NewScanner(f, tracefmt.ScanOptions{})
	if err != nil {
		return ss, err
	}
	eng := engine.New(engine.Options{BootstrapReps: -1, Seed: seed})
	src := &timedSource{Scanner: sc}
	t1 := time.Now()
	fleet, _, err := eng.AnalyzeStream(context.Background(), src, engine.StreamOptions{Spec: scanSpec})
	if err != nil {
		return ss, err
	}
	t2 := time.Now()
	if err := f.Close(); err != nil {
		return ss, err
	}
	t3 := time.Now()
	ss.decode = src.decode
	ss.fit = t2.Sub(src.end)
	ss.fold = src.end.Sub(t1) - src.decode
	ss.stages = []stage{
		{"os.Open+tracefmt.NewScanner", t1.Sub(t0)},
		{"tracefmt.Scanner.ScanBatch", ss.decode},
		{"engine fold", ss.fold},
		{"engine fit phase", ss.fit},
		{"os.File.Close", t3.Sub(t2)},
	}
	ss.wall = t3.Sub(t0)
	ss.ingest = src.end.Sub(t0)
	ss.records, ss.blocks = src.records, src.blocks
	ss.hits, ss.miss = eng.Stats()
	ss.fleetDigest = fleetDigest(fleet)
	return ss, nil
}

func setScanLayers(r *run, ss scanStages) {
	n := float64(ss.records)
	r.set("tracefmt.decode_ns_per_record", float64(ss.decode.Nanoseconds())/n)
	r.set("engine.fold_ns_per_record", float64(ss.fold.Nanoseconds())/n)
	r.set("engine.fit_phase_ms", float64(ss.fit.Nanoseconds())/1e6)
	r.set("engine.fit_memo_hits", float64(ss.hits))
	r.set("engine.fit_memo_misses", float64(ss.miss))
}

// scanReference digests the generator streamed straight into
// AnalyzeStream, with no file and no codec in between.
func scanReference(cfg lanl.Config) (string, error) {
	stream := lanl.NewGenerator(cfg).Stream()
	defer stream.Close()
	fr, _, err := engine.New(engine.Options{BootstrapReps: -1, Seed: cfg.Seed}).
		AnalyzeStream(context.Background(), stream, engine.StreamOptions{Spec: scanSpec})
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	return fleetDigest(fr), nil
}

func runScanAnalyze(r *run) error {
	cfg := lanl.Config{Seed: r.cfg.seed, RateScale: r.cfg.p.genScale}
	path := filepath.Join(r.cfg.workDir, "trace.bin")
	if err := timeSetups(r, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		_, err = writeTrace(lanl.NewGenerator(cfg), f, tracefmt.WriterOptions{})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}); err != nil {
		return err
	}

	want, err := scanReference(cfg)
	if err != nil {
		return err
	}

	untraced, tracedBudget := budgets(r)
	var reps, ingest []float64
	var digests []string
	err = measureUntraced(r, untraced, func() error {
		ss, err := scanFile(path, r.cfg.seed)
		if err != nil {
			return err
		}
		reps = append(reps, ss.wall.Seconds())
		ingest = append(ingest, float64(ss.ingest.Nanoseconds())/1e6)
		digests = append(digests, ss.fleetDigest)
		return nil
	})
	if err != nil {
		return err
	}
	for i, d := range digests {
		r.gate(fmt.Sprintf("run %d FleetResult = generator streamed into AnalyzeStream", i+1), d == want, d)
	}
	r.pinGate("", want)
	reportLatencies(r, reps, ingest)
	if !r.cfg.trace {
		return nil
	}

	var last scanStages
	if err := traced(r, tracedBudget, reps, func() (float64, error) {
		var err error
		last, err = scanFile(path, r.cfg.seed)
		return last.wall.Seconds(), err
	}); err != nil {
		return err
	}
	printStages(r, "scan_analyze", last.stages)
	setScanLayers(r, last)
	r.set("tracefmt.blocks", float64(last.blocks))
	r.gate("traced FleetResult = reference", last.fleetDigest == want, last.fleetDigest)
	// Generation and encode figures come from one traced write of the
	// same trace this workload scans.
	ws, err := tracedWriteFile(lanl.NewGenerator(cfg), path)
	if err != nil {
		return err
	}
	setWriteLayers(r, ws)
	return probeLayers(r, cfg, true)
}

// ---- fit_ci ----------------------------------------------------------

// analyzeFleet is one fit_ci operation: build the in-memory dataset
// (the ingest op, timed in ms) and run the fleet analysis on a fresh
// engine, so no run reuses another's fit memo.
func analyzeFleet(recs []failures.Record, workers, reps int, seed int64) (*engine.FleetResult, float64, error) {
	t := time.Now()
	d, err := failures.NewDataset(recs)
	if err != nil {
		return nil, 0, err
	}
	ingestMs := msSince(t)
	eng := engine.New(engine.Options{Workers: workers, BootstrapReps: reps, Seed: seed})
	fr, err := eng.AnalyzeFleet(context.Background(), d, fitSpec)
	return fr, ingestMs, err
}

func fitInput(cfg lanl.Config) ([]failures.Record, error) {
	d, err := lanl.NewGenerator(cfg).Generate()
	if err != nil {
		return nil, err
	}
	return d.Records(), nil
}

func runFitCI(r *run) error {
	cfg := lanl.Config{Seed: r.cfg.seed, RateScale: r.cfg.p.fitScale}
	var recs []failures.Record
	if err := timeSetups(r, func() error {
		var err error
		recs, err = fitInput(cfg)
		return err
	}); err != nil {
		return err
	}

	// Reference: the same analysis on one worker.
	refFleet, _, err := analyzeFleet(recs, 1, r.cfg.p.fitReps, r.cfg.seed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	want := fleetDigest(refFleet)

	untraced, tracedBudget := budgets(r)
	var reps, ingest []float64
	var digests []string
	err = measureUntraced(r, untraced, func() error {
		t := time.Now()
		fr, ms, err := analyzeFleet(recs, 0, r.cfg.p.fitReps, r.cfg.seed)
		if err != nil {
			return err
		}
		reps = append(reps, time.Since(t).Seconds())
		ingest = append(ingest, ms)
		digests = append(digests, fleetDigest(fr))
		return nil
	})
	if err != nil {
		return err
	}
	for i, d := range digests {
		r.gate(fmt.Sprintf("run %d FleetResult = one-worker reference", i+1), d == want, d)
	}
	r.pinGate("", want)
	reportLatencies(r, reps, ingest)
	if !r.cfg.trace {
		return nil
	}

	var fitMs []float64
	var eng *engine.Engine
	if err := traced(r, tracedBudget, reps, func() (float64, error) {
		t := time.Now()
		d, err := failures.NewDataset(recs)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		eng = engine.New(engine.Options{BootstrapReps: r.cfg.p.fitReps, Seed: r.cfg.seed})
		if _, err := eng.AnalyzeFleet(context.Background(), d, fitSpec); err != nil {
			return 0, err
		}
		fitMs = append(fitMs, msSince(t1))
		return time.Since(t).Seconds(), nil
	}); err != nil {
		return err
	}
	// The codec and fold layers are idle here; probeLayers measures them
	// on this workload's records. The fit phase and memo counts are this
	// workload's own.
	if err := probeCodec(r, cfg); err != nil {
		return err
	}
	if err := probeLayers(r, cfg, true); err != nil {
		return err
	}
	hits, misses := eng.Stats()
	r.set("engine.fit_phase_ms", median(fitMs))
	r.set("engine.fit_memo_hits", float64(hits))
	r.set("engine.fit_memo_misses", float64(misses))
	return nil
}

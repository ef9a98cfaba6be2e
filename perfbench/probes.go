package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/streamstats"
)

// The traced run reports every per-layer metric on every workload. A
// layer the workload's own pipeline leaves idle is measured by a probe:
// calls into that layer's public functions, timed from here, over the
// workload's own records (at most params.probeRecords of them).

// probeCodec runs one traced gen → encode → file and one traced
// file → decode → fold → fit over the workload's generator config.
func probeCodec(r *run, cfg lanl.Config) error {
	path := filepath.Join(r.cfg.workDir, "probe.bin")
	ws, err := tracedWriteFile(lanl.NewGenerator(cfg), path)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	setWriteLayers(r, ws)
	ss, err := scanFile(path, cfg.Seed)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	setScanLayers(r, ss)
	return nil
}

// firstRecords returns the first n records of the trace cfg generates.
func firstRecords(cfg lanl.Config, n int) ([]failures.Record, error) {
	s := lanl.NewGenerator(cfg).Stream()
	defer s.Close()
	var recs []failures.Record
	for len(recs) < n && s.Scan() {
		recs = append(recs, s.Record())
	}
	return recs, s.Err()
}

// perCallNs times fn, which makes calls calls, until at least 50 ms
// have passed, and returns nanoseconds per call.
func perCallNs(calls int, fn func()) float64 {
	start := time.Now()
	runs := 0
	for runs == 0 || time.Since(start) < 50*time.Millisecond {
		fn()
		runs++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs*calls)
}

// probeLayers measures the streamstats, dist, failures-CSV and
// incremental-engine layers, and with serveProbe a short open loop
// against an in-process daemon.
func probeLayers(r *run, cfg lanl.Config, serveProbe bool) error {
	recs, err := firstRecords(cfg, r.cfg.p.probeRecords)
	if err != nil {
		return fmt.Errorf("probe records: %w", err)
	}
	d, err := failures.NewDataset(recs)
	if err != nil {
		return err
	}

	// streamstats: the sketch and the whole accumulator over the
	// per-system interarrival and repair values the engine folds.
	var vals []float64
	for _, id := range d.Systems() {
		sub := d.BySystem(id)
		vals = append(vals, sub.PositiveInterarrivals()...)
		vals = append(vals, sub.RepairTimes()...)
	}
	var probeErr error
	r.set("streamstats.sketch_add_ns", perCallNs(len(vals), func() {
		sk, err := streamstats.NewQuantileSketch(0)
		if err != nil {
			probeErr = err
			return
		}
		for _, v := range vals {
			sk.Add(v)
		}
	}))
	r.set("streamstats.accumulator_add_ns", perCallNs(len(vals), func() {
		acc, err := streamstats.NewAccumulator(streamstats.Config{Seed: cfg.Seed})
		if err != nil {
			probeErr = err
			return
		}
		for _, v := range vals {
			acc.Add(v)
		}
	}))
	if probeErr != nil {
		return probeErr
	}

	// dist: the fit kernels on the fleet sample, drawn like the
	// engine's reservoir.
	res := streamstats.NewReservoir(streamstats.DefaultReservoirSize, cfg.Seed)
	for _, x := range d.PositiveInterarrivals() {
		res.Add(x)
	}
	sample := dist.NewSample(res.Sample())
	var fitMs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := dist.FitAllSample(sample, dist.StandardFamilies()...); err != nil {
			return fmt.Errorf("dist probe: %w", err)
		}
		fitMs = append(fitMs, msSince(t))
	}
	r.set("dist.fitall_ms", median(fitMs))
	const reps = 100
	t := time.Now()
	if _, _, err := dist.FitCISample(dist.FamilyWeibull, sample, reps, 0.95, cfg.Seed); err != nil {
		return fmt.Errorf("dist probe: %w", err)
	}
	r.set("dist.ci_rep_us", float64(time.Since(t).Nanoseconds())/1e3/reps)

	// failures CSV parse and the incremental engine, over the daemon's
	// ingest batches: parse each body, Append it, then Result.
	in, err := batchRecords(recs, r.cfg.p.serve.batch)
	if err != nil {
		return err
	}
	var parse, fold time.Duration
	var refitMs []float64
	scfg := serveConfig("", r.cfg.p.serve)
	inc := engine.New(scfg.Engine).NewIncremental(scfg.Stream)
	ctx := context.Background()
	for _, body := range in.bodies {
		t := time.Now()
		sc, err := failures.NewScanner(bytes.NewReader(body), failures.ReadCSVOptions{SkipMalformed: true})
		if err != nil {
			return err
		}
		var batch []failures.Record
		for sc.Scan() {
			batch = append(batch, sc.Record())
		}
		if err := sc.Err(); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := inc.Append(ctx, batch); err != nil {
			return err
		}
		t2 := time.Now()
		if _, _, err := inc.Result(ctx); err != nil {
			return err
		}
		refitMs = append(refitMs, msSince(t2))
		parse += t1.Sub(t)
		fold += t2.Sub(t1)
	}
	n := float64(len(recs))
	r.set("failures.csv_parse_ns_per_record", float64(parse.Nanoseconds())/n)
	r.set("engine.inc_fold_ns_per_record", float64(fold.Nanoseconds())/n)
	r.set("engine.inc_refit_ms", median(refitMs))
	if !serveProbe {
		return nil
	}

	// serve: a short open loop (at most two seconds of the serve_mixed
	// schedule) over the same batches, after one preloaded batch per
	// tenant so neither is polled before it exists.
	p := r.cfg.p.serve
	const warm = 2
	if len(in.bodies) <= warm {
		return fmt.Errorf("serve probe: %d records make too few batches", len(recs))
	}
	batches := min(len(in.bodies)-warm, int(2*p.ingestHz))
	dmn, sres, err := startRound(filepath.Join(r.cfg.workDir, "probe-serve"), in, warm, p)
	if err != nil {
		return err
	}
	err = serveRound(r, dmn, sres, in, batches, time.Duration(float64(batches)/p.ingestHz*float64(time.Second)), false, true)
	if serr := dmn.stop(); err == nil {
		err = serr
	}
	return err
}

package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/streamstats"
)

// RecordSource yields failure records one at a time. failures.Scanner
// implements it; tests and benchmarks can substitute synthetic sources.
type RecordSource interface {
	Scan() bool
	Record() failures.Record
	Err() error
}

// BatchSource is an optional extension of RecordSource for decoders
// that naturally produce records a block at a time (tracefmt.Scanner,
// tracefmt.ParallelScanner). ScanBatch returns the next non-empty run
// of records, or (nil, nil) at a clean end; the returned slice is only
// valid until the next call. AnalyzeStream type-asserts for this and
// folds whole batches, skipping the per-record interface round trip —
// results are identical to the record-at-a-time path because folding
// is sequential either way.
type BatchSource interface {
	RecordSource
	ScanBatch() ([]failures.Record, error)
}

// StreamOptions configures AnalyzeStream.
type StreamOptions struct {
	// Spec controls sharding and fitting exactly as in AnalyzeFleet.
	Spec ShardSpec
	// SketchEpsilon is the quantile sketch's relative accuracy; <= 0 uses
	// streamstats.DefaultSketchEpsilon.
	SketchEpsilon float64
	// ReservoirSize caps the per-shard fitting subsample; <= 0 uses
	// streamstats.DefaultReservoirSize.
	ReservoirSize int
}

// StreamInfo reports what one streaming pass saw.
type StreamInfo struct {
	// RecordsScanned is the number of records consumed from the source.
	RecordsScanned int
	// OutOfOrder counts records whose start time preceded the previous
	// record's within the same shard. Streaming interarrivals assume a
	// start-time-sorted trace (WriteCSV emits one); out-of-order records
	// yield non-positive deltas, which are dropped exactly like the
	// simultaneous failures the in-memory path drops, but a large count
	// means the input was unsorted and the interarrival studies are not
	// comparable to AnalyzeFleet's.
	OutOfOrder int
	// SketchEpsilon and ReservoirSize echo the effective configuration.
	SketchEpsilon float64
	ReservoirSize int
}

// shardAccum is the O(1)-memory state of one shard during a streaming
// pass: counts, the first/previous start times for rate and interarrival
// accounting, and one streaming accumulator per sample kind.
type shardAccum struct {
	records    int
	haveLast   bool
	firstStart time.Time
	lastStart  time.Time
	outOfOrder int
	inter      *streamstats.Accumulator
	repair     *streamstats.Accumulator
}

// freeze returns a read-only deep copy for query-path fitting: identical
// counts, summaries and subsamples at O(sample) cost. See
// streamstats.Accumulator.Freeze for why the copy must not be added to.
func (a *shardAccum) freeze() *shardAccum {
	c := *a
	c.inter = a.inter.Freeze()
	c.repair = a.repair.Freeze()
	return &c
}

// newShardAccum seeds each of the shard's two reservoirs from (engine seed,
// shard, sample kind), so a streaming run's subsamples — and therefore its
// fits — are reproducible regardless of how the records arrive.
func (e *Engine) newShardAccum(key ShardKey, opts StreamOptions) (*shardAccum, error) {
	inter, err := streamstats.NewAccumulator(streamstats.Config{
		SketchEpsilon: opts.SketchEpsilon,
		ReservoirSize: opts.ReservoirSize,
		Seed:          e.mixSeed(uint64(key.System), uint64(key.Workload), uint64(key.Cause), 1),
	})
	if err != nil {
		return nil, err
	}
	repair, err := streamstats.NewAccumulator(streamstats.Config{
		SketchEpsilon: opts.SketchEpsilon,
		ReservoirSize: opts.ReservoirSize,
		Seed:          e.mixSeed(uint64(key.System), uint64(key.Workload), uint64(key.Cause), 2),
	})
	if err != nil {
		return nil, err
	}
	return &shardAccum{inter: inter, repair: repair}, nil
}

// add folds one record into the shard: repair minutes unconditionally
// (positive only, like Dataset.RepairTimes), the start-time delta against
// the shard's previous record as an interarrival (positive only, like
// Dataset.PositiveInterarrivals).
func (a *shardAccum) add(r *failures.Record) {
	a.records++
	if m := r.Downtime().Minutes(); m > 0 {
		a.repair.Add(m)
	}
	if a.haveLast {
		if r.Start.Before(a.lastStart) {
			a.outOfOrder++
		} else if d := r.Start.Sub(a.lastStart).Seconds(); d > 0 {
			a.inter.Add(d)
		}
		if r.Start.After(a.lastStart) {
			a.lastStart = r.Start
		}
		if r.Start.Before(a.firstStart) {
			a.firstStart = r.Start
		}
	} else {
		a.haveLast = true
		a.firstStart = r.Start
		a.lastStart = r.Start
	}
}

// shardKeysFor enumerates the shards one record belongs to under a spec:
// its system shard always, plus the optional fleet aggregate, workload
// and cause sub-shards.
// The record is passed by pointer on purpose: this is the per-record hot
// path, and a failures.Record is over a hundred bytes — copying it into
// every helper showed up as measurable duffcopy time in profiles.
func shardKeysFor(spec ShardSpec, r *failures.Record) ([4]ShardKey, int) {
	keys := [4]ShardKey{{System: r.System}}
	n := 1
	if spec.IncludeFleet {
		keys[n] = ShardKey{}
		n++
	}
	if spec.ByWorkload {
		keys[n] = ShardKey{System: r.System, Workload: r.Workload}
		n++
	}
	if spec.ByCause {
		keys[n] = ShardKey{System: r.System, Cause: r.Cause}
		n++
	}
	return keys, n
}

// shardTable is the streaming fold shared by AnalyzeStream and
// Incremental: the per-shard accumulators and the count of records
// folded into them. Both paths fold through the same code, so a one-shot
// pass and a sequence of appends over the same records build the same
// state bit for bit.
type shardTable struct {
	eng     *Engine
	opts    StreamOptions
	accums  map[ShardKey]*shardAccum
	records int
}

func (e *Engine) newShardTable(opts StreamOptions) shardTable {
	return shardTable{eng: e, opts: opts, accums: make(map[ShardKey]*shardAccum)}
}

// fold validates one record and fans it out to every shard it belongs
// to. Validation comes first: a zero system, workload or cause would
// make the record's sub-shard keys alias its fleet or system shard and
// fold it twice, so such a record is refused and folds nowhere.
func (t *shardTable) fold(r *failures.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	keys, n := shardKeysFor(t.opts.Spec, r)
	for _, key := range keys[:n] {
		a, ok := t.accums[key]
		if !ok {
			var err error
			if a, err = t.eng.newShardAccum(key, t.opts); err != nil {
				return err
			}
			t.accums[key] = a
		}
		a.add(r)
	}
	t.records++
	return nil
}

// foldSource folds src to its end, checking ctx every 4096 records. A
// BatchSource is drained a decoded block at a time — records are
// addressed by pointer into the batch, so a block of 8192 records costs
// one ScanBatch call instead of 8192 Scan/Record round trips. The fold
// stays sequential and in record order either way, so every accumulator
// sees the same inputs from both paths.
func (t *shardTable) foldSource(ctx context.Context, src RecordSource) error {
	if bs, ok := src.(BatchSource); ok {
		for {
			batch, err := bs.ScanBatch()
			if err != nil {
				return err
			}
			if batch == nil {
				return src.Err()
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := range batch {
				if t.records%4096 == 0 && i > 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				if err := t.fold(&batch[i]); err != nil {
					return err
				}
			}
		}
	}
	for src.Scan() {
		if t.records%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r := src.Record()
		if err := t.fold(&r); err != nil {
			return err
		}
	}
	return src.Err()
}

// info reports the table's stream bookkeeping with the effective
// sketch and reservoir configuration. OutOfOrder sums the shards'
// counts, so a record out of order in several shards counts in each.
func (t *shardTable) info() StreamInfo {
	info := StreamInfo{
		RecordsScanned: t.records,
		SketchEpsilon:  t.opts.SketchEpsilon,
		ReservoirSize:  t.opts.ReservoirSize,
	}
	for _, a := range t.accums {
		info.OutOfOrder += a.outOfOrder
	}
	if info.SketchEpsilon <= 0 {
		info.SketchEpsilon = streamstats.DefaultSketchEpsilon
	}
	if info.ReservoirSize <= 0 {
		info.ReservoirSize = streamstats.DefaultReservoirSize
	}
	return info
}

// AnalyzeStream is the bounded-memory counterpart of AnalyzeFleet: it
// consumes records one at a time from src, sharding each into per-(system,
// workload, cause) streaming accumulators, and never materializes the
// trace. Memory is O(shards × reservoir size), independent of trace
// length.
//
// The result mirrors AnalyzeFleet's — same shard enumeration order, same
// ShardResult shape — with the documented accuracy trade:
//
//   - Summary moments (mean, variance, C², extrema) are exact up to
//     floating-point reassociation;
//   - Summary medians carry the sketch's (1 ± ε) relative-error
//     guarantee;
//   - distribution fits and their bootstrap intervals are computed on a
//     seeded uniform reservoir subsample (exact whenever a shard's sample
//     fits in the reservoir).
//
// Interarrival studies assume src yields records in start-time order; see
// StreamInfo.OutOfOrder.
func (e *Engine) AnalyzeStream(ctx context.Context, src RecordSource, opts StreamOptions) (*FleetResult, *StreamInfo, error) {
	t := e.newShardTable(opts)
	if err := t.foldSource(ctx, src); err != nil {
		if err == ctx.Err() {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
	}
	if t.records == 0 {
		return nil, nil, fmt.Errorf("engine analyze stream: %w", failures.ErrNoRecords)
	}
	info := t.info()
	keys := shardOrder(t.accums, opts.Spec)
	jobs := make([]*shardJob, len(keys))
	for i, key := range keys {
		a := t.accums[key]
		jobs[i] = &shardJob{key: key, size: a.records, acc: a}
	}
	results, err := e.analyzeJobs(ctx, jobs, nil, opts.Spec)
	if err != nil {
		return nil, nil, err
	}
	return &FleetResult{Shards: results}, &info, nil
}

// shardOrder enumerates the shards present in m in the canonical order
// every analysis path reports: fleet aggregate first, then systems
// ascending, each followed by its workload shards (in Workloads()
// order) and cause shards (in Causes() order).
func shardOrder[V any](m map[ShardKey]V, spec ShardSpec) []ShardKey {
	var systems []int
	for key := range m {
		if key.System != 0 && key.Workload == 0 && key.Cause == 0 {
			systems = append(systems, key.System)
		}
	}
	sort.Ints(systems)
	var keys []ShardKey
	if spec.IncludeFleet {
		if _, ok := m[ShardKey{}]; ok {
			keys = append(keys, ShardKey{})
		}
	}
	for _, id := range systems {
		keys = append(keys, ShardKey{System: id})
		if spec.ByWorkload {
			for _, w := range failures.Workloads() {
				if _, ok := m[ShardKey{System: id, Workload: w}]; ok {
					keys = append(keys, ShardKey{System: id, Workload: w})
				}
			}
		}
		if spec.ByCause {
			for _, c := range failures.Causes() {
				if _, ok := m[ShardKey{System: id, Cause: c}]; ok {
					keys = append(keys, ShardKey{System: id, Cause: c})
				}
			}
		}
	}
	return keys
}

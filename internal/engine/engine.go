// Package engine is the concurrent analysis pipeline behind every
// distribution-fitting front-end in the repository. It fans maximum-
// likelihood fits, negative-log-likelihood comparisons and nonparametric
// bootstrap confidence intervals out across a bounded worker pool, memoizes
// every fit and interval on the interned sample it was computed from, so
// repeated invocations reuse results, and merges shard results in a
// deterministic order — the output of a run is byte-for-byte independent of
// the worker count.
//
// Determinism is engineered in three places:
//
//   - every bootstrap task derives its random seed from (engine seed,
//     sample hash, family), never from scheduling order;
//   - shard results are written into a position-indexed slice, so the merge
//     order is the shard enumeration order regardless of completion order;
//   - memoized entries are computed exactly once (sync.Once) and the cached
//     value is what every caller sees.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hpcfail/internal/dist"
	"hpcfail/internal/par"
	"hpcfail/internal/stats"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the concurrent fit workers; <= 0 uses GOMAXPROCS.
	Workers int
	// BootstrapReps is the number of bootstrap resamples (B) behind every
	// confidence interval. 0 uses 200; negative disables interval
	// computation: AnalyzeFleet omits intervals, and FitCI and FitCISample
	// return an error.
	BootstrapReps int
	// Level is the confidence level for bootstrap intervals; 0 uses 0.95.
	Level float64
	// Seed is the base seed for bootstrap resampling. Each task reseeds
	// deterministically from (Seed, sample hash, family), so results do not
	// depend on worker scheduling.
	Seed int64
}

// Engine is a concurrent, memoizing distribution-fitting pipeline. It is
// safe for use from multiple goroutines. Construct with New.
type Engine struct {
	workers int
	reps    int
	level   float64
	seed    int64
	// enumOrder disables largest-first dispatch (tests only): shards are
	// fed in enumeration order, proving ordering never changes output.
	enumOrder bool

	// mu guards memo, each bucket and each entry's slot maps. memo chains
	// every interned sample by its FNV-1a hash; a bucket holds more than
	// one entry only after a hash collision.
	mu   sync.Mutex
	memo map[uint64][]*sampleEntry

	hits, misses atomic.Uint64
	collisions   atomic.Uint64
}

// sampleEntry is one interned sample and everything memoized about it: a
// fit slot and an interval slot per family. Slots are installed under
// Engine.mu and computed once, outside it, by their sync.Once.
type sampleEntry struct {
	s    *dist.Sample
	fits map[dist.Family]*fitSlot
	cis  map[dist.Family]*ciSlot
}

type fitSlot struct {
	once sync.Once
	res  dist.FitResult
}

type ciSlot struct {
	once sync.Once
	// done flips true after once ran, letting the sub-shard pipeline skip
	// scheduling rep blocks for intervals an earlier analysis computed.
	done atomic.Bool
	dist dist.Continuous
	cis  []dist.ParamCI
	err  error
}

// New returns an Engine for the given options.
func New(opts Options) *Engine {
	if opts.BootstrapReps == 0 {
		opts.BootstrapReps = 200
	}
	if opts.Level == 0 {
		opts.Level = 0.95
	}
	return &Engine{
		workers: par.Workers(opts.Workers, math.MaxInt),
		reps:    opts.BootstrapReps,
		level:   opts.Level,
		seed:    opts.Seed,
		memo:    make(map[uint64][]*sampleEntry),
	}
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// BootstrapReps returns the configured bootstrap replication count;
// negative means intervals are disabled.
func (e *Engine) BootstrapReps() int { return e.reps }

// Level returns the confidence level of the bootstrap intervals.
func (e *Engine) Level() float64 { return e.level }

// Stats reports memoization effectiveness: cache hits and misses across
// fit and interval lookups.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Collisions reports how many samples were chained into a hash bucket
// already holding different values: 64-bit FNV-1a collisions, each given
// its own memo entry rather than another sample's results.
func (e *Engine) Collisions() uint64 { return e.collisions.Load() }

// mixSeed hash-combines coordinates into the engine seed, so a derived
// seed is a property of what it seeds, never of when or where that runs:
// a bootstrap task mixes (sample hash, family), a streaming reservoir
// (system, workload, cause, sample kind).
func (e *Engine) mixSeed(vs ...uint64) int64 {
	h := uint64(e.seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return int64(h)
}

// lookup is the memo's one bucket walk. It returns the entry whose sample
// is s itself or, failing that, holds exactly xs, compared bit for bit so
// that NaNs and signed zeros match themselves. On a miss it chains a new
// entry owning s, or returns nil when s is nil. A same-hash entry holding
// other values is walked past, never served. Callers hold e.mu.
func (e *Engine) lookup(hash uint64, xs []float64, s *dist.Sample) *sampleEntry {
	bucket := e.memo[hash]
	for _, ent := range bucket {
		if ent.s == s || sameBits(ent.s.Values(), xs) {
			return ent
		}
	}
	if s == nil {
		return nil
	}
	if len(bucket) > 0 {
		e.collisions.Add(1)
	}
	ent := &sampleEntry{s: s, fits: make(map[dist.Family]*fitSlot), cis: make(map[dist.Family]*ciSlot)}
	e.memo[hash] = append(bucket, ent)
	return ent
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// slot returns m[f], installing a fresh slot on first sight; hit reports
// whether it was already there. Callers hold e.mu.
func slot[T any](m map[dist.Family]*T, f dist.Family) (sl *T, hit bool) {
	if sl, hit = m[f]; !hit {
		sl = new(T)
		m[f] = sl
	}
	return sl, hit
}

func (e *Engine) count(hit bool) {
	if hit {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
}

// Intern returns the engine's shared precomputed Sample for xs, building it
// on first use, so that fleet analyses fitting the same shard sample
// through several families and bootstrap passes pay for the transforms —
// log cache, sums, sorted order, ECDF — exactly once.
func (e *Engine) Intern(xs []float64) *dist.Sample {
	hash := stats.HashSample(xs)
	e.mu.Lock()
	ent := e.lookup(hash, xs, nil)
	e.mu.Unlock()
	if ent != nil {
		return ent.s
	}
	// Build outside the lock; the transforms are O(n).
	s := dist.NewSamplePrehashed(xs, hash)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lookup(hash, xs, s).s
}

// fitOne returns the memoized fit of one family to one sample, computing it
// on first use with dist.ScoreFit.
func (e *Engine) fitOne(s *dist.Sample, f dist.Family) dist.FitResult {
	hash := s.Hash()
	e.mu.Lock()
	sl, hit := slot(e.lookup(hash, s.Values(), s).fits, f)
	e.mu.Unlock()
	e.count(hit)
	sl.once.Do(func() { sl.res = dist.ScoreFit(f, s) })
	return sl.res
}

// FitAll fits each requested family to xs and ranks the results by NLL,
// exactly as dist.FitAll does, but with every per-family fit memoized on
// the interned sample. With no families it fits the paper's standard
// four. It interns xs; use FitAllSample when the caller already holds a
// Sample.
func (e *Engine) FitAll(ctx context.Context, xs []float64, families ...dist.Family) (*dist.Comparison, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("engine fit all: %w", dist.ErrInsufficientData)
	}
	return e.FitAllSample(ctx, e.Intern(xs), families...)
}

// FitAllSample is FitAll over a shared precomputed sample. The comparison
// is rebuilt per call so callers may mutate their copy; the underlying fits
// are shared.
func (e *Engine) FitAllSample(ctx context.Context, s *dist.Sample, families ...dist.Family) (*dist.Comparison, error) {
	if s.N() == 0 {
		return nil, fmt.Errorf("engine fit all: %w", dist.ErrInsufficientData)
	}
	if len(families) == 0 {
		families = dist.StandardFamilies()
	}
	if _, err := s.ECDF(); err != nil {
		return nil, fmt.Errorf("engine fit all: %w", err)
	}
	results := make([]dist.FitResult, len(families))
	for i, f := range families {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results[i] = e.fitOne(s, f)
	}
	return dist.Rank(results), nil
}

// FitCI returns the memoized fit of one family together with seeded
// percentile-bootstrap confidence intervals for every fitted parameter.
// The bootstrap seed derives from (engine seed, sample hash, family), so
// the intervals are identical at any worker count and across runs. It
// interns xs; use FitCISample when the caller already holds a Sample.
func (e *Engine) FitCI(ctx context.Context, xs []float64, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	return e.FitCISample(ctx, e.Intern(xs), f)
}

// lookupCI returns the memoized interval slot of (sample, family),
// installing an empty one on first sight. count controls hit/miss
// accounting: caller-facing lookups count, the sub-shard pipeline's
// internal pre-pass does not (assembly re-looks the same slots up, and
// double counting would skew the benchmark's cache-rate report).
func (e *Engine) lookupCI(s *dist.Sample, f dist.Family, count bool) *ciSlot {
	hash := s.Hash()
	e.mu.Lock()
	sl, hit := slot(e.lookup(hash, s.Values(), s).cis, f)
	e.mu.Unlock()
	if count {
		e.count(hit)
	}
	return sl
}

// FitCISample is FitCI over a shared precomputed sample, feeding the
// zero-allocation bootstrap kernel directly from the sample's cached
// transforms.
func (e *Engine) FitCISample(ctx context.Context, s *dist.Sample, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	reps := e.reps
	if reps < 0 {
		return nil, nil, fmt.Errorf("engine fit CI %v: bootstrap disabled (reps %d)", f, reps)
	}
	sl := e.lookupCI(s, f, true)
	sl.once.Do(func() {
		sl.dist, sl.cis, sl.err = dist.FitCISample(f, s, reps, e.level, e.mixSeed(s.Hash(), uint64(f)))
		sl.done.Store(true)
	})
	return sl.dist, sl.cis, sl.err
}

package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/stats"
)

var errPoisoned = errors.New("poisoned cache entry served")

// Crafting two float64 slices that genuinely collide on 64-bit FNV-1a is
// infeasible at test time, so these tests forge the collision: they chain
// an entry for a different sample under the victim's hash, its fit and
// interval slots already poisoned, exactly the state a real collision
// would leave behind. Each lookup must walk past it to an entry of its
// own, count one collision, and find that entry again on a repeat lookup
// without growing the chain.

// forgedSamples are the colliding contents planted under the victim's
// hash. The second differs from the victim in one middle value only: a
// check of length plus first and last bits cannot tell the two apart.
func forgedSamples(xs []float64) []struct {
	name   string
	forged []float64
} {
	sameEnds := append([]float64(nil), xs...)
	sameEnds[len(xs)/2] *= 2
	return []struct {
		name   string
		forged []float64
	}{
		{"other length", []float64{1, 2, 3}},
		{"same length and ends", sameEnds},
	}
}

// forgeCollision plants an entry for forged under xs's hash with family
// f's fit and interval already resolved to errPoisoned.
func forgeCollision(e *Engine, xs, forged []float64, f dist.Family) *sampleEntry {
	hash := stats.HashSample(xs)
	entry := &sampleEntry{
		s:    dist.NewSamplePrehashed(forged, hash),
		fits: map[dist.Family]*fitSlot{f: {}},
		cis:  map[dist.Family]*ciSlot{f: {}},
	}
	entry.fits[f].once.Do(func() { entry.fits[f].res = dist.FitResult{Family: f, Err: errPoisoned} })
	entry.cis[f].once.Do(func() { entry.cis[f].err = errPoisoned; entry.cis[f].done.Store(true) })
	e.memo[hash] = []*sampleEntry{entry}
	return entry
}

// checkChained asserts the forged entry cost exactly one collision and
// the victim sits beside it in a chain of two.
func checkChained(t *testing.T, e *Engine, xs []float64, pass int) {
	t.Helper()
	if got := e.Collisions(); got != 1 {
		t.Fatalf("pass %d: Collisions = %d, want 1", pass, got)
	}
	if n := len(e.memo[stats.HashSample(xs)]); n != 2 {
		t.Fatalf("pass %d: chain length = %d, want 2", pass, n)
	}
}

func TestFitMemoDetectsHashCollision(t *testing.T) {
	xs := sample(t, 200)
	const f = dist.FamilyWeibull
	want, err := dist.FitAll(xs, f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range forgedSamples(xs) {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 1, BootstrapReps: -1})
			forgeCollision(e, xs, tc.forged, f)
			for pass := 1; pass <= 2; pass++ {
				for name, fit := range map[string]func() (*dist.Comparison, error){
					"FitAll":       func() (*dist.Comparison, error) { return e.FitAll(ctx, xs, f) },
					"FitAllSample": func() (*dist.Comparison, error) { return e.FitAllSample(ctx, dist.NewSample(xs), f) },
				} {
					cmp, err := fit()
					if err != nil {
						t.Fatalf("pass %d %s: %v", pass, name, err)
					}
					if got := cmp.Results[0]; got.Err != nil || got.NLL != want.Results[0].NLL {
						t.Fatalf("pass %d %s: got %+v, want the fresh fit %+v", pass, name, got, want.Results[0])
					}
				}
				checkChained(t, e, xs, pass)
			}
		})
	}
}

func TestCIMemoDetectsHashCollision(t *testing.T) {
	xs := sample(t, 200)
	const f = dist.FamilyWeibull
	ctx := context.Background()
	for _, tc := range forgedSamples(xs) {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 1, BootstrapReps: 16})
			forgeCollision(e, xs, tc.forged, f)
			for pass := 1; pass <= 2; pass++ {
				_, cis, err := e.FitCI(ctx, xs, f)
				if errors.Is(err, errPoisoned) {
					t.Fatalf("pass %d: engine served the colliding entry's error", pass)
				}
				if err != nil {
					t.Fatalf("pass %d: fresh CI failed: %v", pass, err)
				}
				if len(cis) == 0 {
					t.Fatalf("pass %d: no intervals returned", pass)
				}
				checkChained(t, e, xs, pass)
			}
		})
	}
}

func TestSampleInternDetectsHashCollision(t *testing.T) {
	xs := sample(t, 50)
	for _, tc := range forgedSamples(xs) {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 1})
			forged := forgeCollision(e, xs, tc.forged, dist.FamilyWeibull)
			s := e.Intern(xs)
			if s == forged.s || !sameBits(s.Values(), xs) {
				t.Fatal("Intern returned the colliding sample")
			}
			checkChained(t, e, xs, 1)
			// Re-interning must return the chained entry, not build a third.
			if again := e.Intern(xs); again != s {
				t.Fatal("re-intern did not return the chained sample")
			}
			checkChained(t, e, xs, 2)
		})
	}
}

// TestInternSharesSample pins the interning contract itself: equal content
// yields the same *dist.Sample, different content does not. The NaN input
// guards the exact compare: NaN != NaN, so a compare by == would chain a
// fresh entry for every re-intern.
func TestInternSharesSample(t *testing.T) {
	e := New(Options{})
	withNaN := sample(t, 100)
	withNaN[37] = math.NaN()
	for _, xs := range [][]float64{sample(t, 100), withNaN} {
		ys := append([]float64(nil), xs...)
		a, b := e.Intern(xs), e.Intern(ys)
		if a != b {
			t.Fatal("equal-content slices interned to different Samples")
		}
		if c := e.Intern(xs[:50]); c == a {
			t.Fatal("different content interned to the same Sample")
		}
	}
	if e.Collisions() != 0 {
		t.Fatalf("Collisions = %d, want 0", e.Collisions())
	}
}

// TestMemoConcurrentLookups drives one memo from several goroutines at
// once: every caller must see the same interned Sample per content, and
// each (sample, family) fit and interval must miss exactly once however
// the lookups interleave.
func TestMemoConcurrentLookups(t *testing.T) {
	const (
		callers = 8
		f       = dist.FamilyWeibull
	)
	e := New(Options{Workers: 1, BootstrapReps: 16})
	inputs := [][]float64{sample(t, 200), sample(t, 120)}
	got := make([][]*dist.Sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, xs := range inputs {
				ys := append([]float64(nil), xs...)
				got[c] = append(got[c], e.Intern(ys))
				if _, err := e.FitAll(context.Background(), ys, f); err != nil {
					t.Error(err)
				}
				if _, _, err := e.FitCI(context.Background(), ys, f); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for i := range inputs {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d interned input %d to a different Sample", c, i)
			}
		}
	}
	hits, misses := e.Stats()
	if want := uint64(2 * len(inputs)); misses != want {
		t.Errorf("misses = %d, want %d (one fit and one interval per sample)", misses, want)
	}
	if want := uint64(2*len(inputs)*callers) - misses; hits != want {
		t.Errorf("hits = %d, want %d", hits, want)
	}
	if e.Collisions() != 0 {
		t.Errorf("Collisions = %d, want 0", e.Collisions())
	}
}

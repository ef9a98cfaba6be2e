package dist

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hpcfail/internal/lanl"
	"hpcfail/internal/randx"
	"hpcfail/internal/stats"
)

// identitySamples enumerates the observation vectors the bit-identity
// property tests run every family over: healthy samples from several
// generating families, heavy ties, extreme magnitudes, and each validation
// failure mode (empty, too small, all equal, zeros, negatives, NaN, Inf).
func identitySamples() map[string][]float64 {
	gen := func(seed int64, n int, draw func(*randx.Source) float64) []float64 {
		src := randx.NewSource(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw(src)
		}
		return xs
	}
	return map[string][]float64{
		"weibull":     gen(2, 200, func(s *randx.Source) float64 { return s.Weibull(0.7, 100) }),
		"lognormal":   gen(3, 150, func(s *randx.Source) float64 { return s.LogNormal(4, 1.5) }),
		"exponential": gen(4, 100, func(s *randx.Source) float64 { return s.Exponential(0.01) }),
		"tied":        {2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2},
		"tiny":        {1.5, 2.5, 4.5, 8.5, 16.5},
		"pair":        {1, 2},
		"huge":        {1e300, 1e299, 1e298, 5e299, 2e300, 3e298},
		"small-mags":  {1e-300, 2e-300, 5e-299, 1e-298, 7e-300},
		"all-equal":   {5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		"with-zero":   {0, 1, 2, 3, 4},
		"negative":    {-1, 1, 2, 3},
		"with-nan":    {1, 2, math.NaN(), 4},
		"with-inf":    {1, 2, math.Inf(1), 4, 5},
		"single":      {3},
		"empty":       {},
	}
}

// fleetShardSamples returns shard samples of the generated 22-system
// fleet (seed 1) — the interarrival and repair samples the engine fits for
// a small, a mid-sized and the largest system — so the bit-identity tests
// also run over the inputs a fleet analysis actually sees.
var fleetShardSamples = sync.OnceValue(func() map[string][]float64 {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	if err != nil {
		panic(err)
	}
	out := make(map[string][]float64)
	for _, id := range []int{2, 6, 20} {
		sub := d.BySystem(id)
		out[fmt.Sprintf("system%d-interarrival", id)] = sub.PositiveInterarrivals()
		out[fmt.Sprintf("system%d-repair", id)] = sub.RepairTimes()
	}
	return out
})

// identityInputs selects the named identitySamples plus every fleet shard
// sample.
func identityInputs(names ...string) map[string][]float64 {
	all := identitySamples()
	out := make(map[string][]float64, len(names))
	for _, name := range names {
		out[name] = all[name]
	}
	for name, xs := range fleetShardSamples() {
		out[name] = xs
	}
	return out
}

var identityFamilies = []Family{
	FamilyExponential, FamilyWeibull, FamilyGamma, FamilyLogNormal,
	FamilyNormal, FamilyPareto, FamilyHyperExp,
}

// sameError requires both paths to fail together with the same message
// (the kernels reproduce the reference's error text, including the first
// offending index).
func sameError(t *testing.T, refErr, kerErr error) bool {
	t.Helper()
	if (refErr == nil) != (kerErr == nil) {
		t.Fatalf("error mismatch: reference %v, kernel %v", refErr, kerErr)
	}
	if refErr == nil {
		return false
	}
	if refErr.Error() != kerErr.Error() {
		t.Fatalf("error text mismatch:\n  reference: %v\n  kernel:    %v", refErr, kerErr)
	}
	return true
}

// samePAramsBitwise asserts exact (==, not epsilon) equality of the fitted
// parameter vectors. NaN never occurs in successful fits, so plain ==
// comparison is well-defined.
func sameParamsBitwise(t *testing.T, ref, ker Continuous) {
	t.Helper()
	rp, ok := ref.(Parameterized)
	if !ok {
		t.Fatalf("reference fit %T not Parameterized", ref)
	}
	kp, ok := ker.(Parameterized)
	if !ok {
		t.Fatalf("kernel fit %T not Parameterized", ker)
	}
	rv, kv := rp.ParamValues(), kp.ParamValues()
	if len(rv) != len(kv) {
		t.Fatalf("param count %d vs %d", len(rv), len(kv))
	}
	for i := range rv {
		if rv[i] != kv[i] {
			t.Fatalf("param %d differs: reference %v (bits %#x), kernel %v (bits %#x)",
				i, rv[i], math.Float64bits(rv[i]), kv[i], math.Float64bits(kv[i]))
		}
	}
}

// TestFitSampleBitIdenticalToReference is the tentpole property: for every
// family and every sample shape, the kernel fitter over precomputed
// transforms returns exactly the frozen reference's bits — parameters
// compared with ==, and failures with identical error text.
func TestFitSampleBitIdenticalToReference(t *testing.T) {
	for name, xs := range identitySamples() {
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				ref, refErr := RefFit(f, xs)
				s := NewSample(xs)
				ker, kerErr := FitSample(f, s)
				if sameError(t, refErr, kerErr) {
					return
				}
				sameParamsBitwise(t, ref, ker)

				// The slice wrapper must agree with the Sample path too.
				wrap, wrapErr := Fit(f, xs)
				if wrapErr != nil {
					t.Fatalf("wrapper errored after kernel succeeded: %v", wrapErr)
				}
				sameParamsBitwise(t, ker, wrap)
			})
		}
	}
}

// TestFitAllSampleBitIdenticalToReference checks the full comparison —
// NLL, AIC and KS per family, and the ranked order — against the frozen
// reference.
func TestFitAllSampleBitIdenticalToReference(t *testing.T) {
	for name, xs := range identityInputs("weibull", "lognormal", "exponential", "tied", "huge") {
		t.Run(name, func(t *testing.T) {
			ref, refErr := RefFitAll(xs, identityFamilies...)
			ker, kerErr := FitAllSample(NewSample(xs), identityFamilies...)
			if sameError(t, refErr, kerErr) {
				return
			}
			if len(ref.Results) != len(ker.Results) {
				t.Fatalf("result count %d vs %d", len(ref.Results), len(ker.Results))
			}
			for i := range ref.Results {
				r, k := ref.Results[i], ker.Results[i]
				if r.Family != k.Family {
					t.Fatalf("rank %d family %v vs %v", i, r.Family, k.Family)
				}
				if (r.Err == nil) != (k.Err == nil) {
					t.Fatalf("rank %d (%v) error mismatch: %v vs %v", i, r.Family, r.Err, k.Err)
				}
				if r.NLL != k.NLL && !(math.IsNaN(r.NLL) && math.IsNaN(k.NLL)) {
					t.Fatalf("rank %d (%v) NLL %v vs %v", i, r.Family, r.NLL, k.NLL)
				}
				if r.AIC != k.AIC && !(math.IsNaN(r.AIC) && math.IsNaN(k.AIC)) {
					t.Fatalf("rank %d (%v) AIC %v vs %v", i, r.Family, r.AIC, k.AIC)
				}
				if r.KS != k.KS && !(math.IsNaN(r.KS) && math.IsNaN(k.KS)) {
					t.Fatalf("rank %d (%v) KS %v vs %v", i, r.Family, r.KS, k.KS)
				}
				if r.Err == nil {
					sameParamsBitwise(t, r.Dist, k.Dist)
				}
			}
		})
	}
}

// TestFitCIBitIdenticalToReference checks that the gather-based
// zero-allocation sequential-stream bootstrap (frozen as RefStreamFitCI
// when the live path moved to counter-seeded reps) reproduces the frozen
// slice-path bootstrap exactly: same fitted estimates and the same
// interval bounds, bit for bit, at the same (reps, level, seed). The live
// FitCI draws per-rep seeds and is pinned separately by the partition-
// invariance tests in plan_test.go.
func TestFitCIBitIdenticalToReference(t *testing.T) {
	const (
		reps  = 64
		level = 0.9
		seed  = 7
	)
	for name, xs := range identityInputs("weibull", "lognormal", "exponential", "huge") {
		families := identityFamilies
		if _, ok := fleetShardSamples()[name]; ok {
			// Fleet shard samples run the engine's default interval
			// families; the EM-fitted hyperexponential over thousands of
			// points would dominate the package's test time.
			families = []Family{FamilyWeibull, FamilyLogNormal}
		}
		for _, f := range families {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				refD, refCIs, refErr := RefFitCI(f, xs, reps, level, seed)
				kerD, kerCIs, kerErr := RefStreamFitCI(f, NewSample(xs), reps, level, seed)
				if sameError(t, refErr, kerErr) {
					return
				}
				sameParamsBitwise(t, refD, kerD)
				if len(refCIs) != len(kerCIs) {
					t.Fatalf("CI count %d vs %d", len(refCIs), len(kerCIs))
				}
				for i := range refCIs {
					if refCIs[i] != kerCIs[i] {
						t.Fatalf("CI %d differs:\n  reference: %+v\n  kernel:    %+v",
							i, refCIs[i], kerCIs[i])
					}
				}
			})
		}
	}
}

// TestBootstrapKSBitIdenticalToReference checks the sequential-stream
// parametric-bootstrap KS test (frozen as RefStreamBootstrapKSTest): same
// observed statistic, p-value and replication count as the frozen
// slice-path reference at the same seed. The live BootstrapKSTest draws
// per-rep seeds and is pinned by plan_test.go's partition-invariance
// tests.
func TestBootstrapKSBitIdenticalToReference(t *testing.T) {
	const (
		reps = 50
		seed = 11
	)
	for _, name := range []string{"weibull", "exponential"} {
		xs := identitySamples()[name]
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				ref, refErr := refBootstrapKSTest(f, xs, reps, seed)
				ker, kerErr := RefStreamBootstrapKSTest(f, NewSample(xs), reps, seed)
				if sameError(t, refErr, kerErr) {
					return
				}
				if ref.KS != ker.KS {
					t.Fatalf("observed KS %v vs %v", ref.KS, ker.KS)
				}
				if ref.P != ker.P {
					t.Fatalf("p-value %v vs %v", ref.P, ker.P)
				}
				if ref.Replications != ker.Replications {
					t.Fatalf("replications %d vs %d", ref.Replications, ker.Replications)
				}
				sameParamsBitwise(t, ref.Dist, ker.Dist)
			})
		}
	}
}

// TestSampleAccessors checks the precomputed aggregates against direct
// recomputation and the shared lazy views.
func TestSampleAccessors(t *testing.T) {
	xs := identitySamples()["weibull"]
	s := NewSample(xs)
	if s.N() != len(xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(xs))
	}
	var sum, sumLog float64
	maxv, minv := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		sumLog += math.Log(x)
		if x > maxv {
			maxv = x
		}
		if x < minv {
			minv = x
		}
	}
	if s.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", s.Sum(), sum)
	}
	if s.SumLog() != sumLog {
		t.Fatalf("SumLog = %v, want %v", s.SumLog(), sumLog)
	}
	if s.Min() != minv || s.Max() != maxv {
		t.Fatalf("extrema = (%v, %v), want (%v, %v)", s.Min(), s.Max(), minv, maxv)
	}
	if !s.Positive() {
		t.Fatal("Positive = false for a strictly positive sample")
	}
	if got, want := s.Hash(), stats.HashSample(xs); got != want {
		t.Fatalf("Hash = %#x, want stats.HashSample %#x", got, want)
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("Sorted out of order at %d", i)
		}
	}
	if &sorted[0] != &s.Sorted()[0] {
		t.Fatal("Sorted does not return the shared view")
	}
	ecdf, err := s.ECDF()
	if err != nil {
		t.Fatal(err)
	}
	if ecdf.N() != len(xs) {
		t.Fatalf("ECDF N = %d, want %d", ecdf.N(), len(xs))
	}

	if NewSample([]float64{-3, 4}).Positive() {
		t.Fatal("Positive = true for a sample containing a negative")
	}
	if _, err := NewSample(nil).ECDF(); err == nil {
		t.Fatal("ECDF on an empty sample: want error")
	}
}

// TestSamplePrehashed checks that the engine's interning constructor adopts
// the supplied hash instead of recomputing it.
func TestSamplePrehashed(t *testing.T) {
	xs := []float64{1, 2, 3}
	s := NewSamplePrehashed(xs, 0xdeadbeef)
	if s.Hash() != 0xdeadbeef {
		t.Fatalf("Hash = %#x, want the supplied %#x", s.Hash(), 0xdeadbeef)
	}
}

// TestBootstrapRepZeroAlloc pins the tentpole's allocation claim: once the
// scratch buffers have grown to the sample size, a full bootstrap rep —
// index-gather plus family refit — performs zero heap allocations.
func TestBootstrapRepZeroAlloc(t *testing.T) {
	xs := identitySamples()["weibull"]
	s := NewSample(xs)
	src := randx.NewSource(9)
	for _, f := range []Family{FamilyExponential, FamilyWeibull, FamilyGamma, FamilyLogNormal} {
		refit := newRefitFn(f)
		var scratch xform
		vals := make([]float64, 0, 4)
		scratch.gather(&s.t, src) // grow the buffers once
		allocs := testing.AllocsPerRun(50, func() {
			scratch.gather(&s.t, src)
			var ok bool
			vals, ok = refit(&scratch, vals[:0])
			if !ok {
				t.Fatalf("%v: refit failed on a healthy resample", f)
			}
		})
		if allocs != 0 {
			t.Errorf("%v bootstrap rep allocates %v times, want 0", f, allocs)
		}
	}
}

// TestResamplerTiedCDF is the satellite regression test for the CDF binary
// search: on a heavily tied sample (a long run of one value), CDF must
// count values <= x correctly at, below, and above the tie, and must agree
// with a brute-force count at every probe.
func TestResamplerTiedCDF(t *testing.T) {
	// 10k copies of 5.0 flanked by a few distinct values: the old linear
	// advance walked the whole run on every CDF(5) call.
	xs := make([]float64, 0, 10005)
	xs = append(xs, 1, 2, 3)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 5)
	}
	xs = append(xs, 7, 9)
	r, err := NewResampler(xs)
	if err != nil {
		t.Fatal(err)
	}
	probes := []float64{0.5, 1, 2.5, 3, 4.999, 5, 5.001, 7, 8, 9, 10}
	for _, x := range probes {
		count := 0
		for _, v := range xs {
			if v <= x {
				count++
			}
		}
		want := float64(count) / float64(len(xs))
		if got := r.CDF(x); got != want {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestNewResamplerFromSample checks the Sample-sharing constructor against
// the copying one, including its validation.
func TestNewResamplerFromSample(t *testing.T) {
	xs := []float64{3, 1, 2, 2, 5}
	s := NewSample(xs)
	r, err := NewResamplerFromSample(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewResampler(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 2, 2.5, 3, 5, 6} {
		if r.CDF(x) != ref.CDF(x) {
			t.Fatalf("CDF(%v) = %v, want %v", x, r.CDF(x), ref.CDF(x))
		}
	}
	if r.N() != ref.N() || r.Mean() != ref.Mean() {
		t.Fatal("N/Mean disagree with the copying constructor")
	}
	if _, err := NewResamplerFromSample(NewSample(nil)); err == nil {
		t.Fatal("empty sample: want error")
	}
	if _, err := NewResamplerFromSample(NewSample([]float64{0, 1})); err == nil {
		t.Fatal("non-positive sample: want error")
	}
}

// BenchmarkFitWeibull compares the frozen slice-path Weibull fitter with
// the kernel over precomputed transforms, and prices the transform
// construction itself.
func BenchmarkFitWeibull(b *testing.B) {
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refFitWeibull(benchSample); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		s := NewSample(benchSample)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FitWeibullSample(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel+NewSample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FitWeibull(benchSample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitCI compares the frozen per-rep-allocating bootstrap with the
// gather-based zero-allocation kernel loop (Weibull, the costliest family).
func BenchmarkFitCI(b *testing.B) {
	xs := benchSample[:1000]
	const (
		reps  = 32
		level = 0.95
		seed  = 5
	)
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := RefFitCI(FamilyWeibull, xs, reps, level, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		s := NewSample(xs)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := FitCISample(FamilyWeibull, s, reps, level, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

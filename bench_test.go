// Benchmarks: one per table and figure of the paper, each timing the full
// analysis that regenerates it from the reference trace, plus generation
// benchmarks that sweep the workload size. Run with:
//
//	go test -bench=. -benchmem
package hpcfail_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hpcfail"
)

var (
	benchOnce sync.Once
	benchData *hpcfail.Dataset
	benchErr  error
)

// benchDataset generates the reference seed-1 trace once for all
// benchmarks; generation cost is excluded from each benchmark's timing.
func benchDataset(b *testing.B) *hpcfail.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchData, benchErr = hpcfail.NewGenerator(hpcfail.GeneratorConfig{Seed: 1}).Generate()
	})
	if benchErr != nil {
		b.Fatalf("generate: %v", benchErr)
	}
	return benchData
}

var paperHWTypes = []hpcfail.HWType{"D", "E", "F", "G", "H"}

func BenchmarkTable1Catalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catalog := hpcfail.Catalog()
		if len(catalog) != 22 {
			b.Fatal("catalog size")
		}
	}
}

func BenchmarkFig1aRootCauses(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.RootCauseBreakdown(d, paperHWTypes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bDowntime(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.DowntimeBreakdown(d, paperHWTypes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2aFailureRates(b *testing.B) {
	d := benchDataset(b)
	catalog := hpcfail.Catalog()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.FailureRates(d, catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2bNormalizedRates(b *testing.B) {
	d := benchDataset(b)
	catalog := hpcfail.Catalog()
	rates, err := hpcfail.FailureRates(d, catalog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range rates {
			if r.PerYearPerProc < 0 {
				b.Fatal("negative rate")
			}
		}
	}
}

func BenchmarkFig3aPerNode(b *testing.B) {
	d := benchDataset(b).BySystem(20)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counts := d.CountByNode()
		if len(counts) == 0 {
			b.Fatal("no nodes")
		}
	}
}

func BenchmarkFig3bPerNodeFits(b *testing.B) {
	d := benchDataset(b)
	sys20, err := hpcfail.SystemByID(20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := hpcfail.PerNodeCounts(d, sys20)
		if err != nil {
			b.Fatal(err)
		}
		if !study.PoissonRejected {
			b.Fatal("Poisson unexpectedly fits")
		}
	}
}

func BenchmarkFig4Lifecycle(b *testing.B) {
	d := benchDataset(b)
	for _, id := range []int{5, 19} {
		sys, err := hpcfail.SystemByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("system%d", id), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				points, err := hpcfail.LifecycleCurve(d, id, sys.Start, 48)
				if err != nil {
					b.Fatal(err)
				}
				if hpcfail.ClassifyLifecycle(points) == 0 {
					b.Fatal("unclassified")
				}
			}
		})
	}
}

func BenchmarkFig5TimeOfDay(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.NewTimeOfDayProfile(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Interarrival(b *testing.B) {
	d := benchDataset(b)
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		panels, err := hpcfail.Figure6(d, 20, 22, boundary)
		if err != nil {
			b.Fatal(err)
		}
		if !panels.NodeLate.HazardDecreasing {
			b.Fatal("hazard should decrease")
		}
	}
}

func BenchmarkTable2RepairByCause(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.RepairTimeByCause(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aRepairFits(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := hpcfail.RepairTimeFits(d)
		if err != nil {
			b.Fatal(err)
		}
		best, err := study.Fits.Best()
		if err != nil {
			b.Fatal(err)
		}
		if best.Family != hpcfail.FamilyLogNormal {
			b.Fatalf("best = %v", best.Family)
		}
	}
}

func BenchmarkFig7bcRepairPerSystem(b *testing.B) {
	d := benchDataset(b)
	catalog := hpcfail.Catalog()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpcfail.RepairTimePerSystem(d, catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures full-trace generation at several workload
// scales (the generator is the repository's workload generator).
func BenchmarkGenerate(b *testing.B) {
	for _, scale := range []float64{0.25, 1, 4} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := hpcfail.NewGenerator(hpcfail.GeneratorConfig{
					Seed: 1, RateScale: scale,
				}).Generate()
				if err != nil {
					b.Fatal(err)
				}
				if d.Len() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFitFamilies measures MLE fitting cost per family on the
// reference repair-time sample (the Figure 7a inner loop).
func BenchmarkFitFamilies(b *testing.B) {
	d := benchDataset(b)
	xs := d.RepairTimes()
	fits := []struct {
		name string
		fit  func([]float64) error
	}{
		{"exponential", func(v []float64) error { _, err := hpcfail.FitExponential(v); return err }},
		{"weibull", func(v []float64) error { _, err := hpcfail.FitWeibull(v); return err }},
		{"gamma", func(v []float64) error { _, err := hpcfail.FitGamma(v); return err }},
		{"lognormal", func(v []float64) error { _, err := hpcfail.FitLogNormal(v); return err }},
	}
	for _, f := range fits {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.fit(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterSimulation measures the discrete-event simulator running
// a checkpointed workload (the examples' engine).
func BenchmarkClusterSimulation(b *testing.B) {
	tbf, err := hpcfail.NewWeibull(0.7, 120)
	if err != nil {
		b.Fatal(err)
	}
	ttr, err := hpcfail.NewLogNormal(0, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]hpcfail.NodeSpec, 32)
	for i := range specs {
		specs[i] = hpcfail.NodeSpec{TBF: tbf, TTR: ttr}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := hpcfail.NewCluster(hpcfail.ClusterConfig{
			Nodes: specs, Scheduler: hpcfail.FirstFitScheduler{}, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if err := c.Submit(hpcfail.JobConfig{
				ID: j, WorkHours: 200, CheckpointInterval: 8, CheckpointCostHours: 0.1,
			}, 2); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Run(1e5 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the generator with individual mechanisms
// removed, quantifying what each costs and contributes (DESIGN.md calls
// these out as the load-bearing design choices).
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		cfg  hpcfail.GeneratorConfig
	}{
		{"full", hpcfail.GeneratorConfig{Seed: 1, Systems: []int{20}}},
		{"no-batches", hpcfail.GeneratorConfig{Seed: 1, Systems: []int{20}, DisableCorrelatedBatches: true}},
		{"no-modulation", hpcfail.GeneratorConfig{Seed: 1, Systems: []int{20}, DisableTimeModulation: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := hpcfail.NewGenerator(v.cfg).Generate()
				if err != nil {
					b.Fatal(err)
				}
				if d.Len() == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}

// BenchmarkCheckpointPolicies compares fixed vs hazard-adaptive checkpoint
// policies under the paper's Weibull failure model (the ablation for the
// adaptive-policy extension).
func BenchmarkCheckpointPolicies(b *testing.B) {
	wb, err := hpcfail.NewWeibull(0.7, 120)
	if err != nil {
		b.Fatal(err)
	}
	cfg := hpcfail.CheckpointSimConfig{
		TBF: wb, CheckpointCost: 0.2, RestartCost: 0.3,
		WorkHours: 5000, Replications: 8, Seed: 3,
	}
	policies := []hpcfail.IntervalPolicy{
		hpcfail.FixedPolicy(7),
		hpcfail.HazardPolicy{TBF: wb, Cost: 0.2, Min: 1, Max: 100},
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hpcfail.SimulatePolicyEfficiency(cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceReplay measures trace-driven simulation over a recorded
// system history.
func BenchmarkTraceReplay(b *testing.B) {
	d := benchDataset(b).BySystem(12)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := hpcfail.ReplayCluster(d, hpcfail.FirstFitScheduler{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Run(9 * 365 * 24 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetSpec is the workload behind the engine benchmarks: every system of
// the 22-system trace plus the fleet aggregate, four-family fits on both
// samples and bootstrap CIs for the paper's two headline families.
func fleetSpec() hpcfail.ShardSpec {
	return hpcfail.ShardSpec{
		IncludeFleet: true,
		CIFamilies:   []hpcfail.Family{hpcfail.FamilyWeibull, hpcfail.FamilyLogNormal},
	}
}

func benchFleet(b *testing.B, workers int) {
	b.Helper()
	d := benchDataset(b)
	spec := fleetSpec()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration: the memo cache would otherwise turn
		// every iteration after the first into pure cache hits.
		eng := hpcfail.NewEngine(hpcfail.EngineOptions{Workers: workers, BootstrapReps: 32, Seed: 1})
		res, err := eng.AnalyzeFleet(context.Background(), d, spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Shards) != 23 {
			b.Fatalf("%d shards", len(res.Shards))
		}
	}
}

// BenchmarkFitSequential is the 1-worker fleet analysis: the baseline the
// parallel path is compared against.
func BenchmarkFitSequential(b *testing.B) { benchFleet(b, 1) }

// BenchmarkFitParallel is the same workload on an 8-worker pool. On a
// multi-core host it should approach min(8, cores)x the sequential rate;
// results are only meaningful alongside the recorded GOMAXPROCS.
func BenchmarkFitParallel(b *testing.B) { benchFleet(b, 8) }

// BenchmarkHazardEstimation measures the nonparametric hazard pipeline on
// the reference interarrival sample.
func BenchmarkHazardEstimation(b *testing.B) {
	xs := benchDataset(b).BySystem(20).PositiveInterarrivals()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := hpcfail.EmpiricalHazard(xs, 10)
		if err != nil {
			b.Fatal(err)
		}
		if est.Trend() != hpcfail.HazardDecreasingDir {
			b.Fatal("hazard should decrease")
		}
	}
}

package streamstats

import (
	"math"
	"testing"
)

// BenchmarkSketchAdd times QuantileSketch.Add over exponential
// interarrival-like values spanning several decades, the per-record cost
// every streaming shard pays twice (interarrival and repair).
func BenchmarkSketchAdd(b *testing.B) {
	var g lcg = 1
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = -math.Log(1-g.float()) * 3600
	}
	s, err := NewQuantileSketch(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i%len(xs)])
	}
}

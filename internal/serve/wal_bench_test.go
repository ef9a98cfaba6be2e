package serve

import (
	"testing"
	"time"

	"hpcfail/internal/failures"
)

// BenchmarkWALAppend times the encode half of a WAL append for one
// 1000-record ingest batch: the varint payload, its CRC-32 and the frame
// header, without the file write (and optional fsync) that follows.
func BenchmarkWALAppend(b *testing.B) {
	t0 := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]failures.Record, 1000)
	for i := range recs {
		start := t0.Add(time.Duration(i*37) * time.Minute)
		recs[i] = failures.Record{
			System:   1 + i%3,
			Node:     i % 128,
			HW:       failures.HWType(rune('A' + i%4)),
			Workload: failures.Workloads()[i%3],
			Cause:    failures.Causes()[i%6],
			Detail:   "memory",
			Start:    start,
			End:      start.Add(time.Duration(10+i%90) * time.Minute),
		}
	}
	var frameLen int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameLen = len(walFrame("bench-ingest", recs))
	}
	b.StopTimer()
	b.ReportMetric(float64(frameLen)/float64(len(recs)), "B/record")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

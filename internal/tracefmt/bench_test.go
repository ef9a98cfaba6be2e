package tracefmt

import (
	"bytes"
	"io"
	"math"
	"testing"

	"hpcfail/internal/failures"
)

// BenchmarkBlockEncode times the sequential encode path one block per
// op: DefaultBlockRecords records through Writer.Write (validation and
// dictionary indexing) and the block flush (column transpose, CRC) into
// io.Discard. Dictionaries are warm after the first op, so the steady
// state allocates nothing per record.
func BenchmarkBlockEncode(b *testing.B) {
	recs := synthRecords(DefaultBlockRecords)
	w, err := NewWriter(io.Discard, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBlockDecode times one block per op through the path each
// parallel decode worker runs: read the indexed frame, verify its CRC,
// parse the block header and decode its columns into a reused record
// buffer. The trace is held in memory.
func BenchmarkBlockDecode(b *testing.B) {
	raw := encode(b, synthRecords(DefaultBlockRecords), WriterOptions{})
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		b.Fatal(err)
	}
	blk := f.Blocks()[0]
	var frame []byte
	recs := make([]failures.Record, 0, blk.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, frame, err = f.decodeBlockAt(blk, frame, math.MinInt64, math.MaxInt64, recs[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(recs) != blk.Records {
		b.Fatalf("decoded %d records, want %d", len(recs), blk.Records)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Records), "ns/record")
}

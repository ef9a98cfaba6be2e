package lanl

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

func collectStream(t *testing.T, cfg Config) []failures.Record {
	t.Helper()
	var records []failures.Record
	err := NewGenerator(cfg).GenerateStream(func(r failures.Record) error {
		records = append(records, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestGenerateStreamRebuildsGenerate(t *testing.T) {
	// The emitted sequence, loaded into a dataset, must equal Generate()
	// exactly — the stream is the same trace in a different delivery.
	want, err := NewGenerator(Config{Seed: 2}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		records := collectStream(t, Config{Seed: 2, Workers: w})
		got, err := failures.NewDataset(records)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "stream workers", got, want)
	}
}

func TestGenerateStreamEmissionOrderIsDeterministic(t *testing.T) {
	// Not just the sorted dataset: the raw emission sequence itself must
	// be identical at every worker count (system-grouped, catalog order,
	// sorted within each system).
	want := collectStream(t, Config{Seed: 5, Workers: 1})
	got := collectStream(t, Config{Seed: 5, Workers: 8})
	if len(got) != len(want) {
		t.Fatalf("workers 8 emitted %d records, workers 1 emitted %d", len(got), len(want))
	}
	lastSys := -1
	seen := make(map[int]bool)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if s := want[i].System; s != lastSys {
			if seen[s] {
				t.Fatalf("system %d emitted in more than one contiguous group", s)
			}
			seen[s] = true
			if s < lastSys {
				t.Fatalf("system %d emitted after system %d; want catalog order", s, lastSys)
			}
			lastSys = s
		} else if i > 0 && want[i].System == want[i-1].System &&
			want[i].Start.Before(want[i-1].Start) {
			t.Fatalf("record %d out of order within system %d", i, want[i].System)
		}
	}
}

func TestGenerateStreamPropagatesEmitError(t *testing.T) {
	sentinel := errors.New("consumer full")
	for _, w := range []int{1, 4} {
		n := 0
		err := NewGenerator(Config{Seed: 1, Workers: w}).GenerateStream(func(failures.Record) error {
			n++
			if n == 100 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers %d: err = %v, want sentinel", w, err)
		}
		if n != 100 {
			t.Fatalf("workers %d: emit called %d times after error at 100", w, n)
		}
	}
}

func TestRecordStreamDrain(t *testing.T) {
	want := collectStream(t, Config{Seed: 3, Systems: []int{19, 20}})
	s := NewGenerator(Config{Seed: 3, Systems: []int{19, 20}, Workers: 4}).Stream()
	var got []failures.Record
	for s.Scan() {
		got = append(got, s.Record())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestRecordStreamEarlyClose(t *testing.T) {
	s := NewGenerator(Config{Seed: 1, Workers: 4}).Stream()
	for i := 0; i < 10; i++ {
		if !s.Scan() {
			t.Fatalf("scan %d returned false: %v", i, s.Err())
		}
	}
	s.Close()
	s.Close() // idempotent
	if s.Scan() {
		t.Fatal("Scan returned true after Close")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("early close surfaced error: %v", err)
	}
}

// generatorGoroutines returns the stacks of the goroutines, other than
// the caller's, that are inside Generator code: generating a system or
// waiting to.
func generatorGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var busy []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "lanl.(*Generator)") {
			busy = append(busy, g)
		}
	}
	return busy
}

// backToBaseline waits for runtime.NumGoroutine to return to base: a
// goroutine that has finished its work can take the runtime a moment,
// milliseconds under -race, to retire.
func backToBaseline(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStreamReleasesGoroutines pins that GenerateStream, on an emit
// error, and RecordStream.Close return only after every generator
// goroutine has finished — not while the pool is still generating the
// systems it had admitted — and that the goroutine count then returns
// to its baseline.
func TestStreamReleasesGoroutines(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 4, RateScale: 20}
	sentinel := errors.New("stop")
	base := runtime.NumGoroutine()
	err := NewGenerator(cfg).GenerateStream(func(failures.Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if busy := generatorGoroutines(); len(busy) > 0 {
		t.Fatalf("GenerateStream returned with %d goroutines in generator code:\n%s", len(busy), busy[0])
	}
	backToBaseline(t, base, "GenerateStream")

	s := NewGenerator(cfg).Stream()
	if !s.Scan() {
		t.Fatalf("empty stream: %v", s.Err())
	}
	s.Close()
	if busy := generatorGoroutines(); len(busy) > 0 {
		t.Fatalf("RecordStream.Close returned with %d goroutines in generator code:\n%s", len(busy), busy[0])
	}
	backToBaseline(t, base, "RecordStream.Close")
}

package streamstats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hpcfail/internal/binx"
)

// bitsEqual compares floats by bit pattern, so NaN == NaN and -0 != 0 —
// the right notion of identity for snapshot round trips.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sliceBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// streams that exercise every counter path: plain positives, zeros,
// negatives, ±Inf, NaN, heavy repetition, single values.
func snapshotStreams() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	long := make([]float64, 500)
	for i := range long {
		long[i] = math.Exp(rng.NormFloat64())
	}
	return map[string][]float64{
		"empty":     {},
		"single":    {3.25},
		"positives": {1, 2.5, 3.75, 100, 1e-9, 7e12},
		"mixed":     {-4, 0, 0, 5, -0.125, 2},
		"inf":       {1, math.Inf(1), 2, math.Inf(-1), 3},
		"nan":       {1, math.NaN(), 2},
		"long":      long,
	}
}

func fillAccumulator(t *testing.T, xs []float64, capacity int) *Accumulator {
	t.Helper()
	acc, err := NewAccumulator(Config{ReservoirSize: capacity, Seed: 42})
	if err != nil {
		t.Fatalf("NewAccumulator: %v", err)
	}
	for _, x := range xs {
		acc.Add(x)
	}
	return acc
}

// assertAccumulatorsIdentical checks every observable — summary fields by
// bit pattern, a grid of quantiles, the subsample, counts — match.
func assertAccumulatorsIdentical(t *testing.T, want, got *Accumulator) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N: want %d, got %d", want.N(), got.N())
	}
	if !sliceBitsEqual(want.Sample(), got.Sample()) {
		t.Fatalf("Sample: want %v, got %v", want.Sample(), got.Sample())
	}
	if want.N() > 0 {
		ws, errW := want.Summary()
		gs, errG := got.Summary()
		if (errW == nil) != (errG == nil) {
			t.Fatalf("Summary errors diverge: %v vs %v", errW, errG)
		}
		if errW == nil {
			for _, f := range []struct {
				name string
				w, g float64
			}{
				{"Mean", ws.Mean, gs.Mean},
				{"Median", ws.Median, gs.Median},
				{"StdDev", ws.StdDev, gs.StdDev},
				{"Variance", ws.Variance, gs.Variance},
				{"C2", ws.C2, gs.C2},
				{"Min", ws.Min, gs.Min},
				{"Max", ws.Max, gs.Max},
			} {
				if !bitsEqual(f.w, f.g) {
					t.Fatalf("Summary.%s: want %v, got %v", f.name, f.w, f.g)
				}
			}
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			wq, errW := want.Quantile(q)
			gq, errG := got.Quantile(q)
			if (errW == nil) != (errG == nil) || (errW == nil && !bitsEqual(wq, gq)) {
				t.Fatalf("Quantile(%g): want (%v, %v), got (%v, %v)", q, wq, errW, gq, errG)
			}
		}
	}
}

func restored(t *testing.T, acc *Accumulator) *Accumulator {
	t.Helper()
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	out := &Accumulator{}
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	return out
}

func TestAccumulatorSnapshotRoundTrip(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			acc := fillAccumulator(t, xs, 16)
			assertAccumulatorsIdentical(t, acc, restored(t, acc))
		})
	}
}

// The stronger contract: after restore, the accumulator behaves
// identically under further Add and Merge — reservoir RNG state included.
// Capacity 8 over hundreds of adds forces replacement draws, so any
// generator-state drift changes the subsample.
func TestAccumulatorSnapshotFutureBehavior(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			orig := fillAccumulator(t, xs, 8)
			rest := restored(t, orig)
			clone := orig.Clone()

			rng := rand.New(rand.NewSource(99))
			future := make([]float64, 300)
			for i := range future {
				future[i] = rng.ExpFloat64() * 50
			}
			other := fillAccumulator(t, future[:150], 8)
			otherCopy := fillAccumulator(t, future[:150], 8)
			otherCopy2 := fillAccumulator(t, future[:150], 8)

			for _, pair := range []struct {
				label string
				acc   *Accumulator
				merge *Accumulator
			}{
				{"restored", rest, otherCopy},
				{"cloned", clone, otherCopy2},
			} {
				for _, x := range future {
					pair.acc.Add(x)
				}
				if err := pair.acc.Merge(pair.merge); err != nil {
					t.Fatalf("%s merge: %v", pair.label, err)
				}
			}
			for _, x := range future {
				orig.Add(x)
			}
			if err := orig.Merge(other); err != nil {
				t.Fatalf("orig merge: %v", err)
			}

			assertAccumulatorsIdentical(t, orig, rest)
			assertAccumulatorsIdentical(t, orig, clone)
		})
	}
}

// Clone must be independent: mutating the clone leaves the original
// untouched (sketch maps and reservoir sample are deep-copied).
func TestAccumulatorCloneIndependent(t *testing.T) {
	orig := fillAccumulator(t, []float64{1, 2, 3, 4, 5}, 4)
	before, err := orig.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	clone := orig.Clone()
	for i := 0; i < 100; i++ {
		clone.Add(float64(i))
	}
	after, err := orig.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("mutating a clone changed the original accumulator")
	}
}

// Equal states must serialize to equal bytes (sorted bucket order), the
// property the service's bit-identical snapshot comparisons rely on.
func TestSnapshotDeterministicBytes(t *testing.T) {
	a := fillAccumulator(t, snapshotStreams()["long"], 16)
	b := restored(t, a)
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(ab, bb) {
		t.Fatal("restore → marshal is not byte-identical")
	}
	ab2, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(ab, ab2) {
		t.Fatal("marshal is not deterministic")
	}
}

func TestMomentsSnapshotRoundTrip(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			var m Moments
			for _, x := range xs {
				m.Add(x)
			}
			blob, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var got Moments
			if err := got.UnmarshalBinary(blob); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			// Compare via re-marshal: byte equality is bit equality, and
			// NaN fields defeat struct ==.
			reblob, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-MarshalBinary: %v", err)
			}
			if !reflect.DeepEqual(blob, reblob) {
				t.Fatalf("moments differ: want %+v, got %+v", m, got)
			}
		})
	}
}

func TestReservoirSnapshotRNGState(t *testing.T) {
	r := NewReservoir(4, 1234)
	for i := 0; i < 1000; i++ {
		r.Add(float64(i))
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got := &Reservoir{}
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	// Same further stream must produce the same replacement decisions.
	for i := 0; i < 1000; i++ {
		r.Add(float64(-i))
		got.Add(float64(-i))
	}
	if !reflect.DeepEqual(r.Sample(), got.Sample()) {
		t.Fatalf("post-restore samples diverge: %v vs %v", r.Sample(), got.Sample())
	}
	if r.Seen() != got.Seen() {
		t.Fatalf("seen: %d vs %d", r.Seen(), got.Seen())
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	acc := fillAccumulator(t, []float64{1, 2, 3}, 4)
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)/2],
		"wrongKind": append([]byte{'Z'}, blob[1:]...),
		"badVer":    append([]byte{blob[0], 99}, blob[2:]...),
		"trailing":  append(append([]byte(nil), blob...), 0xAB),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			got := &Accumulator{}
			if err := got.UnmarshalBinary(data); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
}

// TestSnapshotCountsBoundRestore: a restore replays the reservoir's
// generator draws and sizes the sketch's bucket maps from the blob, so
// counts that cannot belong to a real history are rejected before
// either happens.
func TestSnapshotCountsBoundRestore(t *testing.T) {
	r := NewReservoir(4, 1234)
	for i := 0; i < 1000; i++ {
		r.Add(float64(i))
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Layout: kind, version, capacity uvarint (one byte for 4), seed,
	// seen, draws, sample length, sample.
	const seenOff, drawsOff = 3 + 8, 3 + 16
	for name, mut := range map[string]func([]byte){
		"draws beyond any history": func(b []byte) { binary.LittleEndian.PutUint64(b[drawsOff:], 1<<62) },
		"draws before capacity":    func(b []byte) { binary.LittleEndian.PutUint64(b[seenOff:], 4) },
		"sample short of capacity": func(b []byte) { binary.LittleEndian.PutUint64(b[seenOff:], 3) },
	} {
		bad := append([]byte(nil), blob...)
		mut(bad)
		if err := (&Reservoir{}).UnmarshalBinary(bad); !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: want ErrSnapshot, got %v", name, err)
		}
	}

	sketch := appendHeader(nil, sketchKind)
	sketch = binx.AppendF64(sketch, DefaultSketchEpsilon)
	for i := 0; i < 5; i++ {
		sketch = le.AppendUint64(sketch, 0)
	}
	sketch = binary.AppendUvarint(sketch, 1<<40)
	if err := (&QuantileSketch{}).UnmarshalBinary(sketch); !errors.Is(err, ErrSnapshot) {
		t.Errorf("bucket count beyond the blob: want ErrSnapshot, got %v", err)
	}

	// The three parts of an accumulator must agree on the count.
	acc := fillAccumulator(t, []float64{1, 2, 3}, 4)
	other := fillAccumulator(t, []float64{1, 2}, 4)
	var mixed []byte
	mixed = appendHeader(mixed, accumulatorKind)
	for _, part := range []interface{ MarshalBinary() ([]byte, error) }{&acc.moments, other.sketch, acc.res} {
		b, err := part.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mixed = binary.AppendUvarint(mixed, uint64(len(b)))
		mixed = append(mixed, b...)
	}
	if err := (&Accumulator{}).UnmarshalBinary(mixed); !errors.Is(err, ErrSnapshot) {
		t.Errorf("sketch count disagreeing with moments: want ErrSnapshot, got %v", err)
	}
}

// TestSnapshotReservoirSampleBoundedByBlob: a 134-byte accumulator blob
// whose three parts agree on 1<<27 observations at capacity 1<<27 claims
// a 1 GiB reservoir sample. The sample length must be checked against
// the bytes left in the blob before the sample is allocated.
func TestSnapshotReservoirSampleBoundedByBlob(t *testing.T) {
	const n = 1 << 27
	le := binary.LittleEndian
	moments := []byte{momentsKind, snapshotVersion}
	moments = le.AppendUint64(moments, n)
	for i := 0; i < 4; i++ {
		moments = le.AppendUint64(moments, 0)
	}
	moments = append(moments, 0)
	sketch := []byte{sketchKind, snapshotVersion}
	sketch = le.AppendUint64(sketch, math.Float64bits(DefaultSketchEpsilon))
	for _, v := range []uint64{n, 0, 0, 0, n} { // zero, ±Inf, NaN, total
		sketch = le.AppendUint64(sketch, v)
	}
	sketch = append(sketch, 0, 0) // no positive or negative buckets
	res := []byte{reservoirKind, snapshotVersion}
	res = binary.AppendUvarint(res, n) // capacity
	res = le.AppendUint64(res, 1)      // seed
	res = le.AppendUint64(res, n)      // seen
	res = le.AppendUint64(res, 0)      // draws
	res = binary.AppendUvarint(res, n) // sample length, no sample bytes
	blob := []byte{accumulatorKind, snapshotVersion}
	for _, part := range [][]byte{moments, sketch, res} {
		blob = binary.AppendUvarint(blob, uint64(len(part)))
		blob = append(blob, part...)
	}
	if len(blob) != 134 {
		t.Fatalf("blob is %d bytes, want 134", len(blob))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Accumulator{}).UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("want ErrSnapshot, got %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting a %d-byte blob allocated %d bytes", len(blob), d)
	}
}

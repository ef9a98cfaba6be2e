package streamstats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/binx"
)

// Versioned binary snapshot/restore for every streaming structure. The
// format is the crash-recovery contract of the analytics service: a
// restored structure is indistinguishable from the original — identical
// Quantile/Mean/Seen answers AND identical future Add/Merge behavior,
// reservoir generator state included. Each blob opens with a one-byte
// kind tag and a one-byte version so mixed-up or stale blobs fail loudly
// instead of decoding garbage.
//
// Encodings are deterministic (sketch buckets are written in sorted key
// order), so equal states produce byte-equal snapshots — the property the
// service's kill-and-restore chaos tests pin.
const (
	momentsKind     byte = 'M'
	sketchKind      byte = 'Q'
	reservoirKind   byte = 'R'
	accumulatorKind byte = 'A'

	snapshotVersion byte = 1
)

// ErrSnapshot is wrapped by every decode failure, so callers can
// distinguish a corrupt blob from other errors with errors.Is.
var ErrSnapshot = errors.New("streamstats: corrupt snapshot")

var le = binary.LittleEndian

// readHeader checks a blob's kind tag and version.
func readHeader(r *binx.Reader, kind byte) error {
	k, v := r.U8(), r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("%w: kind %q, want %q", ErrSnapshot, k, kind)
	}
	if v != snapshotVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrSnapshot, v, snapshotVersion)
	}
	return nil
}

func appendHeader(buf []byte, kind byte) []byte {
	return append(buf, kind, snapshotVersion)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Moments) MarshalBinary() ([]byte, error) {
	buf := appendHeader(make([]byte, 0, 2+8*5+1), momentsKind)
	buf = le.AppendUint64(buf, m.n)
	buf = binx.AppendF64(buf, m.mean)
	buf = binx.AppendF64(buf, m.m2)
	buf = binx.AppendF64(buf, m.min)
	buf = binx.AppendF64(buf, m.max)
	var nan byte
	if m.hasNaN {
		nan = 1
	}
	return append(buf, nan), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing m.
func (m *Moments) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, momentsKind); err != nil {
		return err
	}
	out := Moments{n: r.U64(), mean: r.F64(), m2: r.F64(), min: r.F64(), max: r.F64(), hasNaN: r.U8() != 0}
	if err := r.End(); err != nil {
		return err
	}
	*m = out
	return nil
}

// appendBuckets writes one sign's bucket map in sorted key order.
func appendBuckets(buf []byte, m map[int]uint64) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendUvarint(buf, m[k])
	}
	return buf
}

func readBuckets(r *binx.Reader) map[int]uint64 {
	// Each bucket takes at least two bytes, so a count the blob cannot
	// hold is corrupt — and must not size the map allocation.
	n := r.Count(2)
	m := make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		k := r.Varint()
		m[int(k)] = r.Uvarint()
	}
	return m
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *QuantileSketch) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, sketchKind)
	buf = binx.AppendF64(buf, s.eps)
	buf = le.AppendUint64(buf, s.zero)
	buf = le.AppendUint64(buf, s.posInf)
	buf = le.AppendUint64(buf, s.negInf)
	buf = le.AppendUint64(buf, s.nan)
	buf = le.AppendUint64(buf, s.n)
	buf = appendBuckets(buf, s.pos)
	buf = appendBuckets(buf, s.neg)
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing s.
// Gamma and its log are rederived from the stored epsilon bits, so bucket
// boundaries of future Adds are bit-identical to the snapshotted sketch's.
func (s *QuantileSketch) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, sketchKind); err != nil {
		return err
	}
	eps := r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	out, err := NewQuantileSketch(eps)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	out.zero, out.posInf, out.negInf, out.nan, out.n = r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	out.pos = readBuckets(r)
	out.neg = readBuckets(r)
	if err := r.End(); err != nil {
		return err
	}
	*s = *out
	return nil
}

// Clone returns an independent deep copy of the sketch.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.pos = make(map[int]uint64, len(s.pos))
	for k, v := range s.pos {
		c.pos[k] = v
	}
	c.neg = make(map[int]uint64, len(s.neg))
	for k, v := range s.neg {
		c.neg[k] = v
	}
	return &c
}

// MarshalBinary implements encoding.BinaryMarshaler. The generator state
// is stored as (seed, draws): restore re-seeds and fast-forwards, which
// reproduces the exact state because the underlying source advances one
// step per draw.
func (r *Reservoir) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, reservoirKind)
	buf = binary.AppendUvarint(buf, uint64(r.capacity))
	buf = le.AppendUint64(buf, uint64(r.seed))
	buf = le.AppendUint64(buf, r.seen)
	buf = le.AppendUint64(buf, r.src.n)
	buf = binary.AppendUvarint(buf, uint64(len(r.sample)))
	for _, x := range r.sample {
		buf = binx.AppendF64(buf, x)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing r.
func (r *Reservoir) UnmarshalBinary(data []byte) error {
	return r.unmarshal(data, nil)
}

// maxDrawsPerSeen bounds the generator draws a reservoir can have made
// per observation and unit of capacity. An Add past capacity makes one
// generator call; a Merge makes at most two per slot of capacity and
// adds at least one observation; a call takes more than one draw only
// on a rejection-sampling retry, which is rare. Restore replays every
// draw, so this bound is what keeps a corrupt draw count from buying an
// unbounded replay.
const maxDrawsPerSeen = 8

// unmarshal decodes a reservoir blob. A non-nil wantSeen is the
// observation count the enclosing structure recorded; it is checked
// before the generator replay, like every other count, so the replay
// cost is bounded by counts that agree with each other.
func (r *Reservoir) unmarshal(data []byte, wantSeen *uint64) error {
	br := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(br, reservoirKind); err != nil {
		return err
	}
	capacity := br.Uvarint()
	seed, seen, draws := br.U64(), br.U64(), br.U64()
	// Every sample value is eight bytes, so the blob bounds the sample
	// length before anything is allocated for it.
	n := uint64(br.Count(8))
	if err := br.Err(); err != nil {
		return err
	}
	if capacity == 0 || capacity > math.MaxInt32 {
		return fmt.Errorf("%w: reservoir capacity %d", ErrSnapshot, capacity)
	}
	// The sample fills to capacity before any replacement draw, and a
	// merge past capacity refills it to capacity.
	if n != min(seen, capacity) {
		return fmt.Errorf("%w: reservoir sample %d, want min(seen %d, capacity %d)", ErrSnapshot, n, seen, capacity)
	}
	if wantSeen != nil && seen != *wantSeen {
		return fmt.Errorf("%w: reservoir saw %d observations, enclosing count %d", ErrSnapshot, seen, *wantSeen)
	}
	if draws > 0 && (seen <= capacity || draws/(maxDrawsPerSeen*capacity) > seen) {
		return fmt.Errorf("%w: %d generator draws for %d observations at capacity %d", ErrSnapshot, draws, seen, capacity)
	}
	out := NewReservoir(int(capacity), int64(seed))
	out.seen = seen
	out.sample = make([]float64, n)
	for i := range out.sample {
		out.sample[i] = br.F64()
	}
	if err := br.End(); err != nil {
		return err
	}
	out.src.fastForward(draws)
	*r = *out
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: the three
// sub-structures, each length-prefixed.
func (a *Accumulator) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, accumulatorKind)
	for _, part := range []interface{ MarshalBinary() ([]byte, error) }{&a.moments, a.sketch, a.res} {
		b, err := part.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing a.
func (a *Accumulator) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, accumulatorKind); err != nil {
		return err
	}
	var out Accumulator
	out.sketch = &QuantileSketch{}
	out.res = &Reservoir{}
	// Every Add and Merge reaches all three parts, so they must agree on
	// the observation count; the reservoir checks it before its replay.
	reservoir := func(b []byte) error { return out.res.unmarshal(b, &out.moments.n) }
	for _, unmarshal := range []func([]byte) error{out.moments.UnmarshalBinary, out.sketch.UnmarshalBinary, reservoir} {
		b := r.Bytes(r.Count(1))
		if err := r.Err(); err != nil {
			return err
		}
		if err := unmarshal(b); err != nil {
			return err
		}
	}
	if out.sketch.n != out.moments.n {
		return fmt.Errorf("%w: sketch holds %d observations, moments %d", ErrSnapshot, out.sketch.n, out.moments.n)
	}
	if err := r.End(); err != nil {
		return err
	}
	*a = out
	return nil
}

// Clone returns an independent deep copy of the accumulator: identical
// summaries, quantiles and subsample, and identical future Add/Merge
// behavior. Reproducing the reservoir's generator state costs O(draws);
// use Freeze for read-only copies on a hot query path.
func (a *Accumulator) Clone() *Accumulator {
	return &Accumulator{
		moments: a.moments,
		sketch:  a.sketch.Clone(),
		res:     a.res.Clone(),
	}
}

// Freeze returns an independent read-only deep copy: identical summaries,
// quantiles and subsample, at O(sample) cost. The reservoir's generator
// state is NOT reproduced, so Add/Merge on a frozen copy diverges from
// the original's future — freeze to query, clone to keep accumulating.
// The analytics service freezes dirty shards under a short lock and fits
// the frozen copies outside it, so queries never block writers.
func (a *Accumulator) Freeze() *Accumulator {
	return &Accumulator{
		moments: a.moments,
		sketch:  a.sketch.Clone(),
		res:     a.res.frozen(),
	}
}

// Package binx is the one bounds-checked field reader behind every binary
// format in the repository: the trace file (tracefmt), the accumulator
// snapshots (streamstats), the incremental engine snapshot (engine), and
// the daemon's WAL and server snapshot (serve).
//
// A Reader has a sticky error. The first read that runs past the end or
// meets a malformed varint poisons it; later reads return zero values, so
// a decoder reads a run of fields and checks Err once before acting on
// them. Every error wraps the sentinel the decoder passed to NewReader
// and names the byte offset where decoding stopped.
//
// Two rules keep hostile input cheap. A count that sizes an allocation or
// a loop is read with Count, which rejects it unless the unread bytes can
// hold that many items; and a decoder finishes with End, so a blob with
// trailing bytes is as corrupt as a short one.
package binx

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

var le = binary.LittleEndian

// Reader decodes fields from a byte slice with bounds checking.
type Reader struct {
	buf      []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over buf whose errors wrap sentinel.
func NewReader(buf []byte, sentinel error) *Reader {
	return &Reader{buf: buf, sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", r.sentinel, fmt.Sprintf(format, args...), r.off)
	}
}

// next consumes n bytes, or poisons the reader and returns nil when fewer
// remain.
func (r *Reader) next(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.failf("truncated %s (%d bytes, %d left)", what, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.next(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.next(2, "u16"); b != nil {
		return le.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.next(4, "u32"); b != nil {
		return le.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.next(8, "u64"); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// F64 reads a float64 stored as its little-endian IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint count of items that each take at least minBytes
// (> 0) encoded bytes, and fails unless the unread bytes can hold them
// all. The result is safe to size an allocation or a loop with.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if left := len(r.buf) - r.off; r.err == nil && v > uint64(left/minBytes) {
		r.failf("count %d of %d-byte items in %d bytes", v, minBytes, left)
		return 0
	}
	return int(v)
}

// Bytes reads n bytes. The result aliases the Reader's buffer.
func (r *Reader) Bytes(n int) []byte { return r.next(n, "bytes") }

// String reads a uvarint length followed by that many bytes. It makes
// *Reader a fmt.Stringer, so formatting a Reader consumes a string.
func (r *Reader) String() string { return string(r.Bytes(r.Count(1))) }

// Time reads a varint Unix second and a uvarint nanosecond, as written
// by AppendTime, and returns the instant in UTC.
func (r *Reader) Time() time.Time {
	sec, nsec := r.Varint(), r.Uvarint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// End returns the first failure or, if every read succeeded, an error
// when unread bytes remain.
func (r *Reader) End() error {
	if left := len(r.buf) - r.off; r.err == nil && left != 0 {
		r.failf("%d trailing bytes", left)
	}
	return r.err
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendTime appends t as a varint Unix second and a uvarint nanosecond.
func AppendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// AppendF64 appends v as its little-endian IEEE 754 bits.
func AppendF64(b []byte, v float64) []byte {
	return le.AppendUint64(b, math.Float64bits(v))
}

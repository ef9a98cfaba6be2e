package binx

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

var errTest = errors.New("test: corrupt")

func TestRoundTrip(t *testing.T) {
	when := time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	var b []byte
	b = append(b, 0xAB)
	b = binary.LittleEndian.AppendUint16(b, 0xBEEF)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|5)
	b = AppendF64(b, -0.5)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -300)
	b = AppendString(b, "héllo")
	b = AppendTime(b, when)
	b = binary.AppendUvarint(b, 2) // count of two 1-byte items
	b = append(b, 7, 8)

	r := NewReader(b, errTest)
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); v != -0.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -300 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("String = %q", v)
	}
	if v := r.Time(); !v.Equal(when) || v.Location() != time.UTC {
		t.Errorf("Time = %v", v)
	}
	n := r.Count(1)
	if got := r.Bytes(n); string(got) != "\x07\x08" {
		t.Errorf("Bytes(%d) = %v", n, got)
	}
	if err := r.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if r.Offset() != len(b) {
		t.Errorf("Offset = %d, want %d", r.Offset(), len(b))
	}
}

// TestErrorsAreStickyAndWrapped: the first failure poisons the reader,
// later reads return zero values, and the error wraps the sentinel and
// names the offset where decoding stopped.
func TestErrorsAreStickyAndWrapped(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(r *Reader)
		at   string
	}{
		"short u32":      {[]byte{1, 2, 3}, func(r *Reader) { r.U32() }, "offset 0"},
		"short u64":      {make([]byte, 9), func(r *Reader) { r.U8(); r.U64(); r.U64() }, "offset 9"},
		"bad uvarint":    {[]byte{5, 0x80}, func(r *Reader) { r.U8(); r.Uvarint() }, "offset 1"},
		"bad varint":     {[]byte{0xFF}, func(r *Reader) { r.Varint() }, "offset 0"},
		"negative bytes": {[]byte{1}, func(r *Reader) { r.Bytes(-1) }, "offset 0"},
		"short string":   {[]byte{3, 'a', 'b'}, func(r *Reader) { _ = r.String() }, "offset 1"},
		"short time":     {[]byte{2}, func(r *Reader) { r.Time() }, "offset 1"},
		"trailing":       {[]byte{1, 2}, func(r *Reader) { r.U8() }, "offset 1"},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewReader(tc.data, errTest)
			tc.read(r)
			err := r.End()
			if !errors.Is(err, errTest) {
				t.Fatalf("want errTest, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.at) {
				t.Fatalf("error %q does not name %s", err, tc.at)
			}
			if r.U8() != 0 || r.U64() != 0 || r.Uvarint() != 0 || r.String() != "" || !r.Time().IsZero() {
				t.Fatal("reads after a failure returned non-zero values")
			}
			if r.Err() != err {
				t.Fatalf("error changed after later reads: %v", r.Err())
			}
		})
	}
}

// TestCountBoundsByRemainingBytes: a count is accepted only if the
// unread bytes can hold that many items of the stated minimum size.
func TestCountBoundsByRemainingBytes(t *testing.T) {
	for _, tc := range []struct {
		count    uint64
		minBytes int
		left     int
		ok       bool
	}{
		{0, 8, 0, true},
		{3, 8, 24, true},
		{3, 8, 23, false},
		{10, 10, 100, true},
		{10, 10, 99, false},
		{1 << 20, 10, 1 << 20, false},
		{math.MaxUint64, 1, 16, false},
	} {
		b := binary.AppendUvarint(nil, tc.count)
		b = append(b, make([]byte, tc.left)...)
		r := NewReader(b, errTest)
		n := r.Count(tc.minBytes)
		if tc.ok {
			if r.Err() != nil || uint64(n) != tc.count {
				t.Errorf("Count(%d) of %d over %d bytes = %d, %v; want accepted", tc.minBytes, tc.count, tc.left, n, r.Err())
			}
		} else if !errors.Is(r.Err(), errTest) || n != 0 {
			t.Errorf("Count(%d) of %d over %d bytes = %d, %v; want rejected", tc.minBytes, tc.count, tc.left, n, r.Err())
		}
	}
}

func TestBytesAliasesBuffer(t *testing.T) {
	b := []byte{1, 2, 3}
	r := NewReader(b, errTest)
	got := r.Bytes(3)
	b[0] = 9
	if got[0] != 9 {
		t.Fatal("Bytes copied instead of aliasing")
	}
}

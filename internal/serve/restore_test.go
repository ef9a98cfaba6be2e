package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hpcfail/internal/engine"
	"hpcfail/internal/streamstats"
)

// TestWALRecordCountBoundedByPayload: a CRC-valid frame can be up to
// maxWALFrame bytes, and every record decodes into a failures.Record
// several times the size of its at-least-10-byte encoding. A count the
// payload cannot hold must be rejected before the record slice is
// allocated.
func TestWALRecordCountBoundedByPayload(t *testing.T) {
	payload := make([]byte, 1<<20)
	// An empty ingest ID, then a uvarint claiming 1<<20 records; the
	// zero bytes after it decode as 10-byte all-zero records until the
	// payload runs out.
	binary.PutUvarint(payload[1:], 1<<20)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeWALPayload(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("want ErrWAL, got %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("rejecting a %d-byte payload allocated %d bytes", len(payload), d)
	}
}

// TestCorruptSnapshotWrapsErrSnapshot: a snapshot.bin that fails to
// decode is a server-snapshot failure, whichever field breaks, and never
// a WAL failure.
func TestCorruptSnapshotWrapsErrSnapshot(t *testing.T) {
	dir := t.TempDir()
	bad := append(srvMagic[:len(srvMagic):len(srvMagic)], 0x80) // truncated tenant count
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(snapshotConfig(dir))
	if err == nil {
		s.closeWALs()
		t.Fatal("New accepted a corrupt snapshot")
	}
	if !errors.Is(err, ErrSnapshot) || errors.Is(err, ErrWAL) {
		t.Fatalf("want ErrSnapshot alone, got %v", err)
	}
}

// FuzzDecodeWALPayload: any payload either decodes or fails with ErrWAL,
// never panics, and a decoded batch re-encodes to a payload that decodes
// to the same batch.
func FuzzDecodeWALPayload(f *testing.F) {
	for _, p := range walPayloads(f, walFixture(f)) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, recs, err := decodeWALPayload(payload)
		if err != nil {
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("error does not wrap ErrWAL: %v", err)
			}
			return
		}
		enc := appendWALPayload(nil, id, recs)
		id2, recs2, err := decodeWALPayload(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if again := appendWALPayload(nil, id2, recs2); !bytes.Equal(again, enc) {
			t.Fatalf("decode/encode is not stable: %d bytes, then %d", len(enc), len(again))
		}
	})
}

// restoreTarget is a server with no tenants and no open WALs, ready for
// restoreSnapshot, configured like the snapshot fixture.
func restoreTarget() *Server {
	cfg := snapshotConfig("")
	cfg.applyDefaults()
	return &Server{cfg: cfg, eng: engine.New(cfg.Engine), tenants: make(map[string]*tenant)}
}

// restoreAndEncode restores data into a fresh server and encodes its
// state again.
func restoreAndEncode(data []byte) ([]byte, error) {
	s := restoreTarget()
	if err := s.restoreSnapshot(data); err != nil {
		return nil, err
	}
	return s.encodeSnapshot()
}

func TestSnapshotRestoreReencodes(t *testing.T) {
	data := snapshotFixture(t)
	got, err := restoreAndEncode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("restored fixture re-encodes to %d bytes, want the %d it came from", len(got), len(data))
	}
}

// FuzzRestoreSnapshot: any snapshot.bin either restores or fails with one
// of the corrupt-snapshot sentinels of the layers it nests, never panics,
// and a restored state encodes to a snapshot that restores to the same
// encoding.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Add(snapshotFixture(f))
	f.Add(srvMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, err := restoreAndEncode(data)
		if err != nil {
			for _, sentinel := range []error{ErrSnapshot, engine.ErrIncSnapshot, engine.ErrIncMismatch, streamstats.ErrSnapshot} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("error wraps no corrupt-snapshot sentinel: %v", err)
		}
		again, err := restoreAndEncode(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("restore/encode is not stable: %d bytes, then %d", len(enc), len(again))
		}
	})
}

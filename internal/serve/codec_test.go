package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
)

// The two restart formats the daemon writes, the WAL and snapshot.bin,
// are pinned by sha256 over fixed inputs. A refactor of either codec, or
// of the engine snapshot nested in the server snapshot, that moves a
// byte fails here.

// codecRecords builds records offset..offset+n-1 of a deterministic
// trace that reaches every WAL field: negative and multi-byte varints,
// pre-1970 and sub-second times, and non-empty hardware and detail
// labels.
func codecRecords(n, offset int) []failures.Record {
	t0 := time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC)
	recs := make([]failures.Record, n)
	for i := range recs {
		j := offset + i
		start := t0.Add(time.Duration(j*4099)*time.Minute + time.Duration(j*7919)*time.Nanosecond)
		recs[i] = failures.Record{
			System:   1 + j%3,
			Node:     j * 37 % 300,
			HW:       failures.HWType(rune('A' + j%4)),
			Workload: failures.Workloads()[j%3],
			Cause:    failures.Causes()[j%6],
			Detail:   fmt.Sprintf("detail-%d", j%5),
			Start:    start,
			End:      start.Add(time.Duration(10+j%90)*time.Minute + time.Duration(j)*time.Microsecond),
		}
	}
	return recs
}

// walBatch is one appendBatch call of the WAL fixture.
type walBatch struct {
	id   string
	recs []failures.Record
}

// walFixtureBatches is the fixed append sequence behind walSHA256: an
// ordinary batch, an empty one without an ingest ID, and a batch whose
// system and node are negative.
func walFixtureBatches() []walBatch {
	odd := codecRecords(3, 40)
	for i := range odd {
		odd[i].System, odd[i].Node = -odd[i].System, -1<<40
	}
	return []walBatch{
		{"batch-000", codecRecords(25, 0)},
		{"", nil},
		{"batch-002", odd},
	}
}

const walSHA256 = "c22c589d4ca8298e8596922a2996db126c3735810bae21f9c5cf255a5f545685"

// walFixture writes walFixtureBatches through appendBatch and returns
// the file bytes.
func walFixture(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.wal")
	w, err := createWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range walFixtureBatches() {
		if err := w.appendBatch(b.id, b.recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walPayloads splits a WAL file into its frame payloads.
func walPayloads(t testing.TB, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for off := len(walMagic); off < len(data); {
		if off+8 > len(data) {
			t.Fatalf("torn frame header at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			t.Fatalf("torn frame payload at %d", off)
		}
		out = append(out, data[off+8:off+8+n])
		off += 8 + n
	}
	return out
}

func TestWALDigest(t *testing.T) {
	data := walFixture(t)
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != walSHA256 {
		t.Fatalf("WAL sha256 %s, pinned %s (%d bytes)", got, walSHA256, len(data))
	}
	batches := walFixtureBatches()
	payloads := walPayloads(t, data)
	if len(payloads) != len(batches) {
		t.Fatalf("%d frames, want %d", len(payloads), len(batches))
	}
	for i, p := range payloads {
		id, recs, err := decodeWALPayload(p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(appendWALPayload(nil, id, recs), p) {
			t.Fatalf("frame %d does not re-encode to its own bytes", i)
		}
		if id != batches[i].id || len(recs) != len(batches[i].recs) {
			t.Fatalf("frame %d decodes to %q with %d records, want %q with %d",
				i, id, len(recs), batches[i].id, len(batches[i].recs))
		}
	}
}

const snapshotSHA256 = "6321175f6ec1235173c6ff699faf74ea47424cee6d8699bd08f5bee8655b812a"

// snapshotConfig is the server configuration behind snapshotSHA256: a
// 16-record reservoir, small enough that the fixture's shards draw from
// their generators, and a dedupe window the fixture overflows.
func snapshotConfig(dir string) Config {
	return Config{
		DataDir: dir,
		Engine:  engine.Options{Workers: 1, BootstrapReps: -1, Seed: 42},
		Stream: engine.StreamOptions{
			Spec:          engine.ShardSpec{IncludeFleet: true, ByCause: true},
			ReservoirSize: 16,
		},
		QueueDepth:   4,
		DedupeWindow: 3,
	}
}

// snapshotFixture ingests a fixed sequence of batches into two tenants,
// one of them with a malformed row and a re-sent ingest ID, shuts the
// server down and returns the snapshot.bin it leaves behind.
func snapshotFixture(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := New(snapshotConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ingest := func(tenant, id string, recs []failures.Record, extra string) {
		var body bytes.Buffer
		cw, err := failures.NewCSVWriter(&body)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		body.WriteString(extra)
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+tenant+"/ingest", &body)
		req.Header.Set("Ingest-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %s/%s: status %d: %s", tenant, id, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 5; i++ {
		ingest("alpha", fmt.Sprintf("a-%d", i), codecRecords(40, 40*i), "")
	}
	ingest("alpha", "a-4", codecRecords(40, 160), "")
	ingest("beta", "b-0", codecRecords(30, 1000), "9,9,X,compute,NotACause,,x,y\n")
	ingest("beta", "b-1", codecRecords(30, 1030), "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestServerSnapshotDigest(t *testing.T) {
	data := snapshotFixture(t)
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != snapshotSHA256 {
		t.Fatalf("snapshot.bin sha256 %s, pinned %s (%d bytes)", got, snapshotSHA256, len(data))
	}
}

package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/streamstats"
)

// FuzzReadIncremental throws corrupt snapshots at the daemon's restart
// path. ReadIncremental must reject them with a classified error — never
// a panic or an allocation sized by a corrupt length field — or restore
// a state the daemon can keep serving: it answers Info, Rates and
// Result, folds further records, and re-snapshots to bytes that restore
// to the same bytes again.
func FuzzReadIncremental(f *testing.F) {
	ctx := context.Background()
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 32}
	recs := incTrace(300)
	seed := incEngine().NewIncremental(opts)
	if _, err := seed.Append(ctx, recs[:200]); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := seed.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:len(incMagic)+1])
	f.Add([]byte{})

	// Refit with the closed-form exponential only: the snapshot pins the
	// sharding flags, not the families, and a cheap refit keeps the
	// target fast enough to explore.
	opts.Spec.Families = []dist.Family{dist.FamilyExponential}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := New(Options{Workers: 1, BootstrapReps: -1, Seed: 42})
		inc, err := eng.ReadIncremental(bytes.NewReader(data), opts)
		if err != nil {
			if !errors.Is(err, ErrIncSnapshot) && !errors.Is(err, ErrIncMismatch) && !errors.Is(err, streamstats.ErrSnapshot) {
				t.Fatalf("unclassified restore error: %v", err)
			}
			return
		}
		var once, twice bytes.Buffer
		if err := inc.WriteSnapshot(&once); err != nil {
			t.Fatalf("restored state does not re-snapshot: %v", err)
		}
		again, err := eng.ReadIncremental(bytes.NewReader(once.Bytes()), opts)
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		if err := again.WriteSnapshot(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("snapshot of a restored re-snapshot differs")
		}
		inc.Info()
		inc.Rates()
		if _, _, err := inc.Result(ctx); err != nil && inc.Records() != 0 {
			t.Fatalf("restored state cannot answer Result: %v", err)
		}
		if _, err := inc.Append(ctx, recs[200:]); err != nil {
			t.Fatalf("restored state cannot fold: %v", err)
		}
		if _, _, err := inc.Result(ctx); err != nil {
			t.Fatalf("restored state cannot answer Result after a fold: %v", err)
		}
	})
}

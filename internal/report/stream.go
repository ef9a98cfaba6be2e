package report

import (
	"context"
	"fmt"
	"os"
	"strings"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/tracefmt"
)

// StreamFleet is the CLIs' -stream fleet sweep: one bounded-memory pass
// over an open trace (binary when binary is true, CSV otherwise) through
// the streaming engine, with Weibull and lognormal CIs per system and
// without ever building a Dataset. Summaries carry the documented
// sketch/reservoir accuracy trade instead of being exact; zero epsilon
// and reservoir select the engine defaults.
//
// Binary traces decode on a parallel block pool as wide as the engine —
// over the footer index for regular files, read-ahead for pipes — and
// hand the engine whole blocks; the result is byte-identical at any
// worker count. CSV rows that fail to parse are skipped and counted.
//
// It returns the fleet and the newline-terminated "stream: …" footer
// reporting the pass: records scanned, sketch and reservoir settings,
// and any skipped rows or out-of-order records.
func StreamFleet(ctx context.Context, eng *engine.Engine, f *os.File, binary bool, epsilon float64, reservoir int) (*engine.FleetResult, string, error) {
	var src engine.RecordSource
	var sc *failures.Scanner
	if binary {
		ps, err := tracefmt.ScanFileParallel(f, eng.Workers())
		if err != nil {
			return nil, "", err
		}
		defer ps.Close()
		src = ps
	} else {
		var err error
		sc, err = failures.NewScanner(f, failures.ReadCSVOptions{SkipMalformed: true})
		if err != nil {
			return nil, "", err
		}
		src = sc
	}
	fleet, info, err := eng.AnalyzeStream(ctx, src, engine.StreamOptions{
		Spec: engine.ShardSpec{
			IncludeFleet: true,
			CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
		},
		SketchEpsilon: epsilon,
		ReservoirSize: reservoir,
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stream: %d records in one pass, sketch eps %g, reservoir %d/shard",
		info.RecordsScanned, info.SketchEpsilon, info.ReservoirSize)
	if sc != nil {
		if n := len(sc.RowErrors()); n > 0 {
			fmt.Fprintf(&b, ", %d malformed rows skipped", n)
		}
	}
	if info.OutOfOrder > 0 {
		fmt.Fprintf(&b, ", %d out-of-order records (interarrivals unreliable)", info.OutOfOrder)
	}
	b.WriteString("\n")
	return fleet, b.String(), nil
}

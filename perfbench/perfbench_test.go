package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// smallParams shrinks every workload so a run takes about a second.
func smallParams() params {
	return params{
		genScale:     1,
		fitScale:     0.3,
		fitReps:      10,
		setups:       1,
		probeRecords: 4000,
		serve:        serveParams{batch: 200, ingestHz: 40, resultHz: 10, preload: 4},
	}
}

func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  0.5,
		trace:    trace,
		workDir:  t.TempDir(),
		p:        smallParams(),
		pins:     pinSet{},
		out:      io.Discard,
	}
}

// TestSmokeEachWorkload runs every workload briefly, untraced and
// traced, and checks that it passes its gates and reports every metric
// of its set with a finite value.
func TestSmokeEachWorkload(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(smallConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for m, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m, v.Value)
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, m)
					}
				}
			}
		}
	}
}

// TestWrongPinnedDigestFails pins a wrong digest for the run's seed: the
// gate must count a failed operation and mark the result incorrect.
func TestWrongPinnedDigestFails(t *testing.T) {
	cfg := smallConfig(t, "fit_ci", false)
	cfg.pins = pinSet{"fit_ci": {pinKey(cfg.seed, ""): "not-the-digest"}}
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed gate", res.Correct, res.Failed)
	}
	if got := res.Metrics["ok_frac"].Value; got != 1-1/float64(res.Attempted) {
		t.Fatalf("ok_frac = %v with %d attempted", got, res.Attempted)
	}
}

// TestRefusedIngestFails makes the daemon refuse every batch with 413:
// each refusal counts as a failed operation.
func TestRefusedIngestFails(t *testing.T) {
	cfg := smallConfig(t, "serve_mixed", false)
	cfg.p.serve.maxBatchRecords = cfg.p.serve.batch - 1
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := cfg.p.serve.preload + int(cfg.seconds*cfg.p.serve.ingestHz)
	if res.Correct || res.Failed < batches {
		t.Fatalf("correct=%v failed=%d, want at least the %d refused batches", res.Correct, res.Failed, batches)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); v != 8 || p != 50 {
		t.Errorf("tail of 1..15 = %v at p%v, want the median 8 at p50", v, p)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// and workloads this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		// serve_mixed runs but is not one of the benchmark's workloads;
		// README.md says why.
		if w != "serve_mixed" {
			want = append(want, w)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
}

// Command perfbench is the repository's benchmark. One invocation runs
// one named workload, checks its outputs against correctness gates, and
// prints every metric by name and unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare DIR_A DIR_B
//	bash perfbench/run.sh pin --seeds 1-10
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond the timers that define them. With --trace 1
// the run also times calls into each layer's public functions from this
// package, block by block, prints a stage table, and reports the
// per-layer metrics instead. README.md documents the workloads, every
// metric, and which end-to-end metric each per-layer metric moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric a run reports, with its unit,
// in the order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"result_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "frac"},
	{"ingest_p50_ms", "ms"},
	{"ingest_tail_ms", "ms"},
	{"result_p50_ms", "ms"},
	{"result_tail_ms", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"lanl.gen_ns_per_record", "ns"},
	{"tracefmt.encode_ns_per_record", "ns"},
	{"tracefmt.bytes_per_record", "B"},
	{"tracefmt.decode_ns_per_record", "ns"},
	{"tracefmt.blocks", "count"},
	{"engine.fold_ns_per_record", "ns"},
	{"engine.fit_phase_ms", "ms"},
	{"engine.fit_memo_hits", "count"},
	{"engine.fit_memo_misses", "count"},
	{"streamstats.sketch_add_ns", "ns"},
	{"streamstats.accumulator_add_ns", "ns"},
	{"dist.fitall_ms", "ms"},
	{"dist.ci_rep_us", "us"},
	{"failures.csv_parse_ns_per_record", "ns"},
	{"engine.inc_fold_ns_per_record", "ns"},
	{"engine.inc_refit_ms", "ms"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_bytes", "B"},
	{"serve.wal_bytes_per_record", "B"},
	{"serve.refused_429", "count"},
	{"serve.refused_413", "count"},
	{"serve.errors_5xx", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"runtime.peak_heap_mb", "MiB"},
	{"runtime.alloc_mb_per_run", "MiB"},
	{"trace.result_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the files a run writes; it is removed at the end.
	workDir string
	p       params
	// pins are the pinned per-seed digests; see gates.go.
	pins pinSet
	out  io.Writer
}

// run accumulates one invocation's outcome.
type run struct {
	cfg       config
	attempted int
	failed    int
	values    map[string]float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// op records the outcome of one attempted operation.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// logf prints a human-readable line ahead of the final JSON line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.out, format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"gen_write":    runGenWrite,
	"scan_analyze": runScanAnalyze,
	"fit_ci":       runFitCI,
	"serve_mixed":  runServeMixed,
}

func main() {
	code, err := dispatch(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func dispatch(args []string, stdout io.Writer) (int, error) {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return 2, errors.New("usage: compare DIR_A DIR_B")
			}
			return exitCode(compare(args[1], args[2], stdout))
		case "pin":
			return exitCode(pin(args[1:], stdout))
		}
	}
	cfg, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	cfg.out = stdout
	res, err := execute(cfg)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return 0, nil
}

func exitCode(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: gen_write, scan_analyze, fit_ci or serve_mixed")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return config{}, fmt.Errorf("unknown -workload %q (want one of %v)", *workload, names)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	pins, err := loadPins()
	if err != nil {
		return config{}, err
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  filepath.Join(".bench_build", "work"),
		p:        defaultParams(),
		pins:     pins,
	}, nil
}

// execute runs one workload and assembles its result line. Every metric
// of the selected set must have been set by the workload.
func execute(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	r := &run{cfg: cfg, values: make(map[string]float64)}
	r.logf("env %s", envLine())
	if err := workloads[cfg.workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", cfg.workload)
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// envLine describes the machine a result was recorded on.
func envLine() string {
	b, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	})
	return string(b)
}

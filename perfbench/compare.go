package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"hpcfail/internal/lanl"
)

// A result set is a directory with one subdirectory per workload, each
// holding the captured standard output of runs, one file per run:
//
//	DIR/<workload>/seed<N>.out
//
// compare reads two sets and prints, per workload and metric, each
// side's median and quartiles and the change of the median. It is a
// report, not a gate: deciding a regression needs the paired runs and
// bounds that BENCHMARK.json and README.md describe.
func compare(dirA, dirB string, w io.Writer) error {
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", dirA, dirB)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tdelta\n")
	for _, wl := range names {
		var metrics []string
		for m := range a[wl].values {
			if _, ok := b[wl].values[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va, vb := a[wl].values[m], b[wl].values[m]
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			delta := "n/a"
			if ma != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%s\n",
				wl, m, a[wl].units[m], ma, a1, a3, mb, b1, b3, delta)
		}
		fmt.Fprintf(tw, "%s\truns\t\t%d\t%s\t%d\t%s\t\n", wl, a[wl].runs, a[wl].env, b[wl].runs, b[wl].env)
	}
	return tw.Flush()
}

type workloadSet struct {
	values map[string][]float64
	units  map[string]string
	runs   int
	env    string
}

func loadSet(dir string) (map[string]*workloadSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>/*.out files", dir)
	}
	set := make(map[string]*workloadSet)
	for _, f := range files {
		wl := filepath.Base(filepath.Dir(f))
		env, res, err := readRun(f)
		if err != nil {
			return nil, err
		}
		ws, ok := set[wl]
		if !ok {
			ws = &workloadSet{values: make(map[string][]float64), units: make(map[string]string), env: env}
			set[wl] = ws
		}
		ws.runs++
		for name, m := range res.Metrics {
			ws.values[name] = append(ws.values[name], m.Value)
			ws.units[name] = m.Unit
		}
	}
	return set, nil
}

// readRun parses one captured run: its env line and its result line.
func readRun(path string) (string, *result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	var env, last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "env "); ok {
			env = e
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return env, &res, nil
}

// pin prints the pinned digests of digests.json for a range of seeds:
// every workload's reference output at the default sizes, and for
// serve_mixed the bodies of a run of -seconds seconds.
func pin(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pin", flag.ContinueOnError)
	seeds := fs.String("seeds", "1-10", "seed range lo-hi")
	seconds := fs.Float64("seconds", 10, "serve_mixed run length the digests are for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("-seeds: want lo-hi, got %q", *seeds)
	}
	p := defaultParams()
	out := pinSet{"gen_write": {}, "scan_analyze": {}, "fit_ci": {}, "serve_mixed": {}}
	for seed := from; seed <= to; seed++ {
		gen := lanl.Config{Seed: seed, RateScale: p.genScale}
		d, err := genWriteReference(gen)
		if err != nil {
			return err
		}
		out["gen_write"][pinKey(seed, "")] = d
		if d, err = scanReference(gen); err != nil {
			return err
		}
		out["scan_analyze"][pinKey(seed, "")] = d
		recs, err := fitInput(lanl.Config{Seed: seed, RateScale: p.fitScale})
		if err != nil {
			return err
		}
		fr, _, err := analyzeFleet(recs, 1, p.fitReps, seed)
		if err != nil {
			return err
		}
		out["fit_ci"][pinKey(seed, "")] = fleetDigest(fr)
		n := int(*seconds * p.serve.ingestHz)
		in, err := makeServeInput(seed, p.serve.preload+n, p.serve)
		if err != nil {
			return err
		}
		for t, name := range tenantNames {
			var acked []int
			for i := t; i < p.serve.preload+n; i += 2 {
				acked = append(acked, i)
			}
			body, _ := referenceResult(name, in, acked)
			out["serve_mixed"][pinKey(seed, servePinKey(name, p.serve.preload, n))] = sha256Hex(body)
		}
		fmt.Fprintf(os.Stderr, "pinned seed %d\n", seed)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

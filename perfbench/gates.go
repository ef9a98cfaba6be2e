package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strconv"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
)

// Correctness gates run before any number counts. Each workload compares
// its outputs with an independent reference computed in the same run
// (another worker count, or another path to the same answer) and, for
// the seeds listed in digests.json, with a pinned digest. A mismatch
// counts as a failed operation and makes the command exit non-zero.

//go:embed digests.json
var pinnedJSON []byte

// pinSet maps workload → seed → pinned digest. The digests hold only for
// the default workload sizes (defaultParams).
type pinSet map[string]map[string]string

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return p, nil
}

// check compares got with the pinned digest for (workload, seed), if one
// is pinned. It returns whether the gate passed and a description.
func (p pinSet) check(workload string, seed int64, key, got string) (bool, string) {
	want, ok := p[workload][pinKey(seed, key)]
	if !ok {
		return true, "no pinned digest for this seed"
	}
	if want != got {
		return false, fmt.Sprintf("pinned digest %s, got %s", want, got)
	}
	return true, "matches pinned digest"
}

func pinKey(seed int64, key string) string {
	s := strconv.FormatInt(seed, 10)
	if key != "" {
		s += "/" + key
	}
	return s
}

// gate records one correctness check as an attempted operation.
func (r *run) gate(name string, ok bool, detail string) {
	r.op(ok)
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
	}
	r.logf("gate %s: %s (%s)", name, verdict, detail)
}

// pinGate checks got against the pinned digest for this run's seed.
func (r *run) pinGate(key, got string) {
	ok, detail := r.cfg.pins.check(r.cfg.workload, r.cfg.seed, key, got)
	name := "pinned"
	if key != "" {
		name += " " + key
	}
	r.gate(name, ok, detail)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// fleetDigest hashes every field of a fleet result that an analysis
// reports, floats by their exact bits, so two results digest equally
// only if they are identical.
func fleetDigest(fr *engine.FleetResult) string {
	h := sha256.New()
	for _, sh := range fr.Shards {
		fmt.Fprintf(h, "shard %s records=%d err=%v\n", sh.Key, sh.Records, sh.Err)
		studyDigest(h, "interarrival", sh.Interarrival)
		studyDigest(h, "repair", sh.Repair)
	}
	return hexSum(h)
}

func studyDigest(w io.Writer, tag string, st *engine.Study) {
	if st == nil {
		fmt.Fprintf(w, "%s none\n", tag)
		return
	}
	s := st.Summary
	fmt.Fprintf(w, "%s n=%d summary=%d %s\n", tag, st.N, s.N,
		bits(s.Mean, s.Median, s.StdDev, s.Variance, s.C2, s.Min, s.Max))
	if st.Fits != nil {
		for _, f := range st.Fits.Results {
			params := ""
			if f.Dist != nil {
				params = f.Dist.Params()
			}
			fmt.Fprintf(w, "fit %s %q %s err=%v\n", f.Family, params, bits(f.NLL, f.AIC, f.KS), f.Err)
		}
	}
	families := make([]dist.Family, 0, len(st.CIs))
	for f := range st.CIs {
		families = append(families, f)
	}
	sort.Slice(families, func(i, j int) bool { return families[i] < families[j] })
	for _, f := range families {
		for _, ci := range st.CIs[f] {
			fmt.Fprintf(w, "ci %s %s %s\n", f, ci.Name, bits(ci.Estimate, ci.Lo, ci.Hi))
		}
	}
}

func bits(xs ...float64) string {
	b := make([]byte, 0, 17*len(xs))
	for _, x := range xs {
		b = strconv.AppendUint(b, math.Float64bits(x), 16)
		b = append(b, ' ')
	}
	return string(b)
}

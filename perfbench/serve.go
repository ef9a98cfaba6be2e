package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/serve"
)

// serveParams sizes serve_mixed's open loop. Both rates sit well below
// the capacity measured on a 2-CPU box (see README.md), so the queue
// stays short and latency reflects service time, not backlog.
type serveParams struct {
	// batch is the records per ingest request.
	batch int
	// ingestHz is the ingest schedule, round-robin over the tenants.
	ingestHz float64
	// resultHz is the /result poll schedule, alternating tenants.
	resultHz float64
	// preload is how many batches set-up sends back to back before the
	// schedule starts, so the timed part sees populated shards.
	preload int
	// maxBatchRecords is the server's per-batch record cap; 0 keeps the
	// daemon default.
	maxBatchRecords int
}

func defaultServeParams() serveParams {
	return serveParams{batch: 1000, ingestHz: 20, resultHz: 10, preload: 200}
}

var tenantNames = [2]string{"alpha", "beta"}

// serveConfig is cmd/failserved's default configuration with bootstrap
// intervals off.
func serveConfig(dir string, p serveParams) serve.Config {
	return serve.Config{
		DataDir: dir,
		Engine:  engine.Options{BootstrapReps: -1, Seed: 1},
		Stream: engine.StreamOptions{
			Spec: engine.ShardSpec{IncludeFleet: true, ByCause: true},
		},
		MaxBatchRecords:  p.maxBatchRecords,
		SnapshotInterval: 30 * time.Second,
	}
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	dir  string
	done chan error
}

func startDaemon(dir string, p serveParams) (*daemon, error) {
	s, err := serve.New(serveConfig(dir, p))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{
		srv:  s,
		http: &http.Server{Handler: s.Handler()},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener, waits for the serving goroutine, then
// drains the analytics pipeline and writes the final snapshot.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// serveInput is the seeded ingest stream: CSV bodies and the records
// each one carries.
type serveInput struct {
	bodies [][]byte
	recs   [][]failures.Record
}

// serveScale is the trace scale that yields at least n batches: about
// 22k records per unit of scale, with margin.
func serveScale(n int, p serveParams) float64 {
	return math.Max(1, math.Ceil(float64(n*p.batch)/20000))
}

// makeServeInput generates n batches of p.batch records from the seed's
// trace, in start-time order.
func makeServeInput(seed int64, n int, p serveParams) (*serveInput, error) {
	need := n * p.batch
	scale := serveScale(n, p)
	all, err := firstRecords(lanl.Config{Seed: seed, RateScale: scale}, need)
	if err != nil {
		return nil, err
	}
	if len(all) < need {
		return nil, fmt.Errorf("scale %g trace has %d records, need %d", scale, len(all), need)
	}
	return batchRecords(all[:need], p.batch)
}

func batchRecords(all []failures.Record, size int) (*serveInput, error) {
	in := &serveInput{}
	for lo := 0; lo < len(all); lo += size {
		recs := all[lo:min(lo+size, len(all))]
		var buf bytes.Buffer
		w, err := failures.NewCSVWriter(&buf)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, buf.Bytes())
		in.recs = append(in.recs, recs)
	}
	return in, nil
}

// loopResult is what one open-loop round observed.
type loopResult struct {
	ingestMs, resultMs, lateMs []float64
	// status counts responses by HTTP status; 0 counts transport errors.
	status map[int]int
	// acked[t] lists the batch indexes tenant t acknowledged with 200.
	acked       [2][]int
	accepted    [2]int
	finalBodies [2][]byte
	resultS     float64
	requests    int
	// preloaded is how many batches preload sent before the schedule.
	preloaded int
}

func (l *loopResult) failures() int {
	n := 0
	for code, c := range l.status {
		if code != http.StatusOK {
			n += c
		}
	}
	return n
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// do sends one request and reads the whole response. code is 0 on a
// transport error.
func do(c *http.Client, req *http.Request) (int, []byte) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

// openLoop drives the daemon on two connections for the first n batches
// of in: one sends batch i at start + i/ingestHz to tenant i%2, the
// other polls /result at resultHz, alternating tenants, from two ingest
// periods in (by then each tenant has had a batch due). Latencies run
// from each request's due time. After the schedule it fetches each
// tenant's final /result.
func openLoop(d *daemon, in *serveInput, res *loopResult, n int, dur time.Duration, p serveParams) error {
	var mu sync.Mutex
	count := func(code int) {
		mu.Lock()
		res.count(code)
		mu.Unlock()
	}
	from := res.preloaded
	ingestEvery := time.Duration(float64(time.Second) / p.ingestHz)
	pollEvery := time.Duration(float64(time.Second) / p.resultHz)
	polls := int(dur.Seconds() * p.resultHz)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var ingestErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.Transport.(*http.Transport).CloseIdleConnections()
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * ingestEvery)
			time.Sleep(time.Until(due))
			res.lateMs = append(res.lateMs, msSince(due))
			code, err := res.ingest(c, d, in, from+k)
			res.ingestMs = append(res.ingestMs, msSince(due))
			count(code)
			if err != nil {
				ingestErr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.Transport.(*http.Transport).CloseIdleConnections()
		first := start.Add(2 * ingestEvery)
		for j := 0; j < polls; j++ {
			due := first.Add(time.Duration(j) * pollEvery)
			time.Sleep(time.Until(due))
			code, _ := getResult(c, d, j%2)
			res.resultMs = append(res.resultMs, msSince(due))
			count(code)
		}
	}()
	wg.Wait()
	if ingestErr != nil {
		return ingestErr
	}
	c := newClient()
	defer c.Transport.(*http.Transport).CloseIdleConnections()
	for t := range tenantNames {
		code, body := getResult(c, d, t)
		res.count(code)
		res.finalBodies[t] = body
	}
	res.resultS = time.Since(start).Seconds()
	return nil
}

// ingest posts batch i to tenant i%2 and records an acknowledgement.
// The error reports a reply that cannot be decoded.
func (l *loopResult) ingest(c *http.Client, d *daemon, in *serveInput, i int) (int, error) {
	t := i % 2
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/tenants/"+tenantNames[t]+"/ingest", bytes.NewReader(in.bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Ingest-Id", "batch-"+strconv.Itoa(i))
	code, body := do(c, req)
	if code != http.StatusOK {
		return code, nil
	}
	var ir serve.IngestResult
	if err := json.Unmarshal(body, &ir); err != nil {
		return code, fmt.Errorf("ingest reply: %w", err)
	}
	l.acked[t] = append(l.acked[t], i)
	l.accepted[t] += ir.Accepted
	return code, nil
}

// getResult fetches tenant t's /result.
func getResult(c *http.Client, d *daemon, t int) (int, []byte) {
	req, _ := http.NewRequest(http.MethodGet, d.url+"/v1/tenants/"+tenantNames[t]+"/result", nil) // a constant method and valid URL cannot fail
	return do(c, req)
}

func (l *loopResult) count(code int) {
	l.status[code]++
	l.requests++
}

// preload sends the first w batches back to back and then asks each
// tenant for a result, so the timed schedule starts with every tenant's
// shards populated and fitted rather than filling from empty.
func preload(d *daemon, in *serveInput, w int) (*loopResult, error) {
	res := &loopResult{status: make(map[int]int), preloaded: w}
	c := newClient()
	defer c.Transport.(*http.Transport).CloseIdleConnections()
	for i := 0; i < w; i++ {
		code, err := res.ingest(c, d, in, i)
		res.count(code)
		if err != nil {
			return nil, err
		}
	}
	for t := range tenantNames {
		code, _ := getResult(c, d, t)
		res.count(code)
	}
	return res, nil
}

// startRound starts a daemon in dir and preloads it with the first w
// batches of in.
func startRound(dir string, in *serveInput, w int, p serveParams) (*daemon, *loopResult, error) {
	d, err := startDaemon(dir, p)
	if err != nil {
		return nil, nil, err
	}
	res, err := preload(d, in, w)
	if err != nil {
		_ = d.stop() // the preload error is the one to report
		return nil, nil, err
	}
	return d, res, nil
}

// serveRound runs the open loop for the n batches after the preloaded
// ones, counts every request as an operation, and checks the gates.
// layers adds the per-layer serve metrics, measured after the loop.
func serveRound(r *run, d *daemon, res *loopResult, in *serveInput, n int, dur time.Duration, pinned, layers bool) error {
	if err := openLoop(d, in, res, n, dur, r.cfg.p.serve); err != nil {
		return err
	}
	r.attempted += res.requests
	r.failed += res.failures()
	r.logf("serve: %d requests (%d batches preloaded), status counts %v", res.requests, res.preloaded, res.status)
	for t, name := range tenantNames {
		want, records := referenceResult(name, in, res.acked[t])
		r.gate(fmt.Sprintf("tenant %s accepted = records in acknowledged batches", name),
			res.accepted[t] == records, fmt.Sprintf("%d accepted, %d sent", res.accepted[t], records))
		got := bytes.TrimSpace(res.finalBodies[t])
		r.gate(fmt.Sprintf("tenant %s /result = engine.Incremental fed the same batches", name),
			bytes.Equal(got, want), fmt.Sprintf("%d vs %d bytes", len(got), len(want)))
		if pinned {
			r.pinGate(servePinKey(name, res.preloaded, n), sha256Hex(got))
		}
	}
	if !layers {
		return nil
	}
	r.set("serve.refused_429", float64(res.status[http.StatusTooManyRequests]))
	r.set("serve.refused_413", float64(res.status[http.StatusRequestEntityTooLarge]))
	fivexx := 0
	for code, c := range res.status {
		if code >= 500 {
			fivexx += c
		}
	}
	r.set("serve.errors_5xx", float64(fivexx))
	sorted := sortedCopy(res.lateMs)
	r.set("loadgen.late_ms_p99", sorted[int(math.Ceil(0.99*float64(len(sorted))))-1])
	var snaps []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := d.srv.Snapshot(); err != nil {
			return err
		}
		snaps = append(snaps, msSince(t))
	}
	r.set("serve.snapshot_ms", median(snaps))
	st, err := os.Stat(filepath.Join(d.dir, "snapshot.bin"))
	if err != nil {
		return err
	}
	r.set("serve.snapshot_bytes", float64(st.Size()))
	walBytes, err := dirBytes(filepath.Join(d.dir, "wal"))
	if err != nil {
		return err
	}
	r.set("serve.wal_bytes_per_record", float64(walBytes)/float64(res.accepted[0]+res.accepted[1]))
	return nil
}

// servePinKey names a tenant's pinned /result digest after w preloaded
// and n scheduled batches.
func servePinKey(tenant string, w, n int) string {
	return fmt.Sprintf("%s/%d+%d", tenant, w, n)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// roundSeconds is the length of one open-loop round. A longer run
// runs several rounds, each on a freshly set-up daemon, and pools
// their samples: the daemon's memory and refit cost grow with every
// /result for as long as it runs (the engine keeps every sample it has
// fitted), so one long round would drift toward capacity instead of
// measuring a steady state.
const roundSeconds = 10

func runServeMixed(r *run) error {
	p := r.cfg.p.serve
	untraced, _ := budgets(r)
	rounds := max(1, int(math.Round(untraced.Seconds()/roundSeconds)))
	dur := untraced / time.Duration(rounds)
	n := int(dur.Seconds() * p.ingestHz)
	var in *serveInput
	var d *daemon
	var res *loopResult
	dirs := 0
	dir := func() string {
		dirs++
		return filepath.Join(r.cfg.workDir, fmt.Sprintf("serve-%d", dirs))
	}
	setup := func() error {
		var err error
		if in, err = makeServeInput(r.cfg.seed, p.preload+n, p); err != nil {
			return err
		}
		d, res, err = startRound(dir(), in, p.preload, p)
		return err
	}
	var setups, resultS, peak, late []float64
	var ingest, results latencies
	for i := 0; i < max(r.cfg.p.setups, rounds); i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i >= rounds {
			if err := d.stop(); err != nil {
				return err
			}
			continue
		}
		var rss peakRSS
		rss.reset()
		err := serveRound(r, d, res, in, n, dur, !r.cfg.trace, false)
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		mb, err := rss.mb()
		if err != nil {
			return err
		}
		peak = append(peak, mb)
		resultS = append(resultS, res.resultS)
		ingest = append(ingest, res.ingestMs)
		results = append(results, res.resultMs)
		late = append(late, res.lateMs...)
	}
	r.set("setup_s", median(setups))
	r.set("peak_rss_mb", sortedCopy(peak)[len(peak)-1])
	r.set("result_s", median(resultS))
	setLatencies(r, ingest, results)
	r.logf("setup: %d runs, median %.4f s", len(setups), median(setups))
	r.logf("open loop: %d rounds of %d ingest batches of %d records at %g/s and %d /result polls at %g/s, after %d preloaded batches",
		rounds, n, p.batch, p.ingestHz, len(results[0]), p.resultHz, p.preload)
	r.logf("sender late: p50 %.4f ms; result_s per round %.4f", median(late), resultS)
	if !r.cfg.trace {
		return nil
	}

	// The traced round repeats one round's schedule on a fresh daemon
	// with the heap sampler running; the layer probes follow.
	d, tres, err := startRound(dir(), in, p.preload, p)
	if err != nil {
		return err
	}
	before := totalAllocMB()
	hs := startHeapSampler()
	err = serveRound(r, d, tres, in, n, dur, false, true)
	r.set("runtime.peak_heap_mb", hs.peakMB())
	hits, misses := d.srv.Engine().Stats()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.set("runtime.alloc_mb_per_run", totalAllocMB()-before)
	r.set("trace.result_s", tres.resultS)
	r.set("trace.overhead_frac", tres.resultS/median(resultS))
	cfg := lanl.Config{Seed: r.cfg.seed, RateScale: serveScale(p.preload+n, p)}
	if err := probeCodec(r, cfg); err != nil {
		return err
	}
	// The daemon's own memo counts, not the codec probe's.
	r.set("engine.fit_memo_hits", float64(hits))
	r.set("engine.fit_memo_misses", float64(misses))
	return probeLayers(r, cfg, false)
}

// referenceResult is the /result body a tenant must serve after folding
// the acknowledged batches: an engine.Incremental with the daemon's
// options, fed the same batches in the same order, rendered like the
// daemon renders it. It also returns the records those batches carry.
func referenceResult(tenant string, in *serveInput, acked []int) ([]byte, int) {
	cfg := serveConfig("", serveParams{})
	inc := engine.New(cfg.Engine).NewIncremental(cfg.Stream)
	records := 0
	for _, i := range acked {
		if _, err := inc.Append(context.Background(), in.recs[i]); err != nil {
			return []byte("append: " + err.Error()), records
		}
		records += len(in.recs[i])
	}
	fr, info, err := inc.Result(context.Background())
	if err != nil {
		return []byte("result: " + err.Error()), records
	}
	return renderResult(tenant, fr, info), records
}

// The types below restate the daemon's /result wire format, so the gate
// compares the served bytes with an independent rendering.

type jsonNum float64

func (n jsonNum) MarshalJSON() ([]byte, error) {
	f := float64(n)
	switch {
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

type wireKey struct {
	System   int    `json:"system"`
	Workload string `json:"workload,omitempty"`
	Cause    string `json:"cause,omitempty"`
}

type wireSummary struct {
	N        int     `json:"n"`
	Mean     jsonNum `json:"mean"`
	Median   jsonNum `json:"median"`
	StdDev   jsonNum `json:"stddev"`
	Variance jsonNum `json:"variance"`
	C2       jsonNum `json:"c2"`
	Min      jsonNum `json:"min"`
	Max      jsonNum `json:"max"`
}

type wireFit struct {
	Family string  `json:"family"`
	Params string  `json:"params,omitempty"`
	NLL    jsonNum `json:"nll"`
	AIC    jsonNum `json:"aic"`
	KS     jsonNum `json:"ks"`
	Error  string  `json:"error,omitempty"`
}

type wireCI struct {
	Name     string  `json:"name"`
	Estimate jsonNum `json:"estimate"`
	Lo       jsonNum `json:"lo"`
	Hi       jsonNum `json:"hi"`
}

type wireStudy struct {
	N       int                 `json:"n"`
	Summary wireSummary         `json:"summary"`
	Fits    []wireFit           `json:"fits"`
	CIs     map[string][]wireCI `json:"cis,omitempty"`
}

type wireShard struct {
	Key          wireKey    `json:"key"`
	Label        string     `json:"label"`
	Records      int        `json:"records"`
	Interarrival *wireStudy `json:"interarrival,omitempty"`
	Repair       *wireStudy `json:"repair,omitempty"`
	Error        string     `json:"error,omitempty"`
}

type wireResult struct {
	Tenant        string      `json:"tenant"`
	Records       int         `json:"records"`
	OutOfOrder    int         `json:"out_of_order"`
	SketchEpsilon jsonNum     `json:"sketch_epsilon"`
	ReservoirSize int         `json:"reservoir_size"`
	Shards        []wireShard `json:"shards"`
}

func renderResult(tenant string, fr *engine.FleetResult, info *engine.StreamInfo) []byte {
	out := wireResult{
		Tenant:        tenant,
		Records:       info.RecordsScanned,
		OutOfOrder:    info.OutOfOrder,
		SketchEpsilon: jsonNum(info.SketchEpsilon),
		ReservoirSize: info.ReservoirSize,
		Shards:        make([]wireShard, 0, len(fr.Shards)),
	}
	for _, sh := range fr.Shards {
		k := wireKey{System: sh.Key.System}
		if sh.Key.Workload != 0 {
			k.Workload = sh.Key.Workload.String()
		}
		if sh.Key.Cause != 0 {
			k.Cause = sh.Key.Cause.String()
		}
		ws := wireShard{Key: k, Label: sh.Key.String(), Records: sh.Records,
			Interarrival: wireStudyOf(sh.Interarrival), Repair: wireStudyOf(sh.Repair)}
		if sh.Err != nil {
			ws.Error = sh.Err.Error()
		}
		out.Shards = append(out.Shards, ws)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return []byte("render: " + err.Error())
	}
	return b
}

func wireStudyOf(st *engine.Study) *wireStudy {
	if st == nil {
		return nil
	}
	s := st.Summary
	w := &wireStudy{N: st.N, Summary: wireSummary{
		N: s.N, Mean: jsonNum(s.Mean), Median: jsonNum(s.Median), StdDev: jsonNum(s.StdDev),
		Variance: jsonNum(s.Variance), C2: jsonNum(s.C2), Min: jsonNum(s.Min), Max: jsonNum(s.Max),
	}}
	if st.Fits != nil {
		for _, f := range st.Fits.Results {
			wf := wireFit{Family: f.Family.String(), NLL: jsonNum(f.NLL), AIC: jsonNum(f.AIC), KS: jsonNum(f.KS)}
			if f.Err != nil {
				wf.Error = f.Err.Error()
			} else if f.Dist != nil {
				wf.Params = f.Dist.Params()
			}
			w.Fits = append(w.Fits, wf)
		}
	}
	if len(st.CIs) > 0 {
		w.CIs = make(map[string][]wireCI, len(st.CIs))
		families := make([]dist.Family, 0, len(st.CIs))
		for f := range st.CIs {
			families = append(families, f)
		}
		sort.Slice(families, func(i, j int) bool { return families[i] < families[j] })
		for _, f := range families {
			cis := make([]wireCI, 0, len(st.CIs[f]))
			for _, ci := range st.CIs[f] {
				cis = append(cis, wireCI{Name: ci.Name, Estimate: jsonNum(ci.Estimate), Lo: jsonNum(ci.Lo), Hi: jsonNum(ci.Hi)})
			}
			w.CIs[f.String()] = cis
		}
	}
	return w
}

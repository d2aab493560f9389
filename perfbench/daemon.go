package main

// The serve-mixed workload: an in-process daemon (internal/serve) on a
// loopback listener with its default admission, quota and jobs settings,
// driven by an open loop of seeded Poisson arrivals from three tenants over
// at most nproc client connections. About 90% of arrivals are synchronous
// analyses, about 10% durable jobs that the generator follows to the end.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"metainsight"
	"metainsight/internal/serve"
)

const (
	// serveRate is the offered load in arrivals per second. On a 2-vCPU
	// host it keeps the process about a quarter busy; at half busy the
	// queueing spread the latency median across seeds beyond its bound.
	serveRate = 6.0
	// jobShare is the share of arrivals that are durable jobs.
	jobShare = 0.1
	// minArrivals stretches a short run so the sync-latency p90 of the
	// traced run keeps at least ten samples beyond it.
	minArrivals = 120
	// jobPollFirst is how often the generator polls a job's status until
	// it reports its first insight, which comes within milliseconds, and
	// jobPoll how often after that, until the job is done.
	jobPollFirst = time.Millisecond
	jobPoll      = 5 * time.Millisecond
	// serveSetupRepeats is how many daemons set-up time is the median of;
	// a daemon starts in tens of milliseconds, so it can afford more
	// repeats than the analyze workloads.
	serveSetupRepeats = 21
	// inprocRounds is how many times the traced run repeats each
	// (table, parameters) pair in-process.
	inprocRounds = 3
)

// serveParam is one parameterization of the mix: the wire form the daemon
// receives and the library request it lowers that to.
type serveParam struct {
	wire serve.AnalyzeParams
	req  metainsight.Request
}

// serveParams varies cost budgets, TopK, τ, top-k pruning and the measure
// set; the two MIN/MAX measure sets make each session's substrate registry
// hold three entries.
func serveParams() []serveParam {
	spec := func(agg, col string) serve.MeasureSpec { return serve.MeasureSpec{Agg: agg, Column: col} }
	return []serveParam{
		{serve.AnalyzeParams{TopK: 10}, metainsight.Request{TopK: 10}},
		{serve.AnalyzeParams{TopK: 5, BudgetCost: 400},
			metainsight.Request{TopK: 5, Budget: metainsight.Budget{Cost: 400}}},
		{serve.AnalyzeParams{TopK: 10, Tau: 0.6}, metainsight.Request{TopK: 10, Tau: 0.6}},
		{serve.AnalyzeParams{TopK: 10, Measures: []serve.MeasureSpec{
			spec("MIN", "Spend"), spec("MAX", "Spend"), spec("SUM", "Transactions")}},
			metainsight.Request{TopK: 10, Measures: []metainsight.Measure{
				metainsight.Min("Spend"), metainsight.Max("Spend"), metainsight.Sum("Transactions")}}},
		{serve.AnalyzeParams{TopK: 8, BudgetCost: 200, TopKPruning: 5},
			metainsight.Request{TopK: 8, Budget: metainsight.Budget{Cost: 200}, TopKPruning: 5}},
		{serve.AnalyzeParams{TopK: 10, Measures: []serve.MeasureSpec{
			spec("SUM", "Spend"), spec("MAX", "Transactions"), spec("COUNT", "*")}},
			metainsight.Request{TopK: 10, Measures: []metainsight.Measure{
				metainsight.Sum("Spend"), metainsight.Max("Transactions"), metainsight.Count("*")}}},
	}
}

// arrival is one scheduled operation of the open loop.
type arrival struct {
	job          bool
	table, param int
	tenant       string
}

// planArrivals lays out n arrivals with a fixed composition — exactly
// round(jobShare·n) jobs, the (table, parameters) pairs and the tenants in
// rotation — and lets the seed shuffle their order. Every seed offers the
// same mix, so runs differ only in arrival order and times.
func planArrivals(seed int64, n, tables, params int) []arrival {
	pairs := tables * params
	jobs := int(math.Round(jobShare * float64(n)))
	out := make([]arrival, n)
	for i := range out {
		k, job := i-jobs, false
		if i < jobs {
			k, job = i*7, true // stride through the pairs: jobs cover them evenly too
		}
		p := k % pairs
		out[i] = arrival{job: job, table: p / params, param: p % params, tenant: fmt.Sprintf("tenant-%d", i%3)}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// daemon is a running in-process server on a loopback listener.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	base  string
	state string
	done  chan error
}

func startDaemon(names, paths []string, state string) (*daemon, error) {
	specs := make([]serve.DatasetSpec, len(paths))
	for i := range paths {
		specs[i] = serve.DatasetSpec{Name: names[i], Path: paths[i]}
	}
	srv, err := serve.New(serve.Config{
		Datasets: specs,
		StateDir: state,
		Observer: metainsight.NewObserver(metainsight.ObserverOptions{}),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), state: state, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for the serving goroutine, and closes
// the server.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // best effort: the server is discarded either way
	<-d.done
	d.srv.Close()
}

// call sends one JSON request and decodes a JSON reply into out.
func call(ctx context.Context, c *http.Client, method, url, tenant string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// shed reports whether a status is the daemon refusing work under load.
func shed(status int) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
}

// serveRun holds what the load generator observed.
type serveRun struct {
	mu   sync.Mutex
	t    tally
	sync map[int]time.Duration // arrival index -> latency of a successful sync request
	// jobFirst is, per successful job, the delay from due until the first
	// insight its polled status reports.
	jobFirst    []time.Duration
	jobDone     []time.Duration
	ckWrites    []float64
	completions int
}

func (r *serveRun) record(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// loadgen drives one daemon.
type loadgen struct {
	d      *daemon
	c      *http.Client
	names  []string
	params []serveParam
	want   [][]digest // [table][param]
}

func (g *loadgen) wire(table, param int) serve.AnalyzeParams {
	p := g.params[param].wire
	p.Dataset = g.names[table]
	return p
}

// analyze sends one synchronous analysis and checks it.
func (g *loadgen) analyze(ctx context.Context, a arrival) tally {
	var resp serve.AnalyzeResponse
	status, err := call(ctx, g.c, http.MethodPost, g.d.base+"/v1/analyze", a.tenant, g.wire(a.table, a.param), &resp)
	t := tally{attempted: 1}
	switch {
	case err != nil || (status != http.StatusOK && !shed(status)):
		t.failed, t.errors = 1, 1
	case shed(status):
		t.failed = 1
	case responseDigest(resp.Insights, resp.Stats) != g.want[a.table][a.param]:
		t.failed, t.mismatches = 1, 1
	}
	return t
}

// job submits one durable job, polls it until it is done, and checks its
// result. It returns the delays, from due, to the first insight the job
// reported and to its completion.
func (g *loadgen) job(ctx context.Context, a arrival, due time.Time) (t tally, first, done time.Duration, writes int64) {
	t.attempted = 1
	var sub serve.SubmitResponse
	status, err := call(ctx, g.c, http.MethodPost, g.d.base+"/v1/jobs", a.tenant, g.wire(a.table, a.param), &sub)
	if err != nil || status != http.StatusAccepted {
		t.failed = 1
		if !shed(status) {
			t.errors = 1
		}
		return
	}
	for {
		var st serve.JobStatus
		status, err := call(ctx, g.c, http.MethodGet, g.d.base+"/v1/jobs/"+sub.ID, "", nil, &st)
		if err != nil || status != http.StatusOK {
			t.failed, t.errors = 1, 1
			return
		}
		if first == 0 && st.InsightsFound > 0 {
			first = time.Since(due)
		}
		switch st.State {
		case serve.JobDone:
			done = time.Since(due)
			var stats struct {
				CheckpointWrites int64 `json:"checkpoint_writes"`
			}
			_ = json.Unmarshal(st.Stats, &stats) // a malformed body fails the digest below
			writes = stats.CheckpointWrites
			if st.Degraded {
				t.failed = 1
			} else if jobDigest(st.Insights, st.Stats) != g.want[a.table][a.param] {
				t.failed, t.mismatches = 1, 1
			}
			return
		case serve.JobFailed:
			t.failed, t.errors = 1, 1
			return
		}
		select {
		case <-ctx.Done():
			t.failed, t.errors = 1, 1
			return
		case <-time.After(pollInterval(first)):
		}
	}
}

func pollInterval(first time.Duration) time.Duration {
	if first == 0 {
		return jobPollFirst
	}
	return jobPoll
}

// runLoad plays the seeded schedule against the daemon.
func (g *loadgen) runLoad(ctx context.Context, schedule []time.Duration, plan []arrival) (*serveRun, []arrivalTiming, time.Duration) {
	run := &serveRun{sync: map[int]time.Duration{}}
	start := time.Now().Add(20 * time.Millisecond)
	timings := openLoop(ctx, start, schedule, func(i int, due time.Time) {
		a := plan[i]
		if !a.job {
			t := g.analyze(ctx, a)
			lat := time.Since(due)
			run.record(func() {
				run.t.add(t)
				if t.failed == 0 {
					run.sync[i] = lat
					run.completions++
				}
			})
			return
		}
		t, first, done, writes := g.job(ctx, a, due)
		run.record(func() {
			run.t.add(t)
			if t.failed == 0 {
				run.jobDone = append(run.jobDone, done)
				if first > 0 {
					run.jobFirst = append(run.jobFirst, first)
				}
				run.ckWrites = append(run.ckWrites, float64(writes))
				run.completions++
			}
		})
	})
	var end time.Duration
	for i, tm := range timings {
		end = max(end, schedule[i]+tm.Latency)
	}
	return run, timings, end
}

// syncByParam groups the sync latencies (ms) by parameter set.
func (r *serveRun) syncByParam(plan []arrival) map[int][]float64 {
	out := map[int][]float64{}
	for i, l := range r.sync {
		out[plan[i].param] = append(out[plan[i].param], ms(l))
	}
	return out
}

// serveOracle computes the digest of every (table, parameters) pair.
func serveOracle(tabs []*metainsight.Dataset, params []serveParam) ([][]digest, error) {
	want := make([][]digest, len(tabs))
	for i, tab := range tabs {
		want[i] = make([]digest, len(params))
		for j, p := range params {
			d, err := oracleDigest(tab, p.req)
			if err != nil {
				return nil, err
			}
			want[i][j] = d
		}
	}
	return want, nil
}

// setupDaemon starts a daemon and waits for its first successful request.
func setupDaemon(g *loadgen, paths []string, state string) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(g.names, paths, state)
	if err != nil {
		return nil, 0, err
	}
	g.d = d
	t := g.analyze(context.Background(), arrival{tenant: "setup"})
	if t.failed > 0 {
		d.stop()
		return nil, 0, fmt.Errorf("first request to the daemon failed (mismatch=%d)", t.mismatches)
	}
	return d, time.Since(start), nil
}

// runServe runs the serve-mixed workload.
func runServe(cfg runConfig, paths []string) (tally, map[string]float64, error) {
	var t tally
	v := map[string]float64{}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(filepath.Base(p), ".csv")
	}
	tabs, err := ingestTables(paths, v)
	if err != nil {
		return t, nil, err
	}
	params := serveParams()
	want, err := serveOracle(tabs, params)
	if err != nil {
		return t, nil, err
	}
	client, conns := newLimitedClient(runtime.NumCPU())
	g := &loadgen{c: client, names: names, params: params, want: want}

	var d *daemon
	setups := make([]float64, 0, serveSetupRepeats)
	for rep := 0; rep < serveSetupRepeats; rep++ {
		if d != nil {
			d.stop()
		}
		var dur time.Duration
		d, dur, err = setupDaemon(g, paths, filepath.Join(cfg.dir, fmt.Sprintf("state-%d", rep)))
		if err != nil {
			return t, nil, err
		}
		setups = append(setups, dur.Seconds())
	}
	defer d.stop()
	// Warm every (table, parameters) pair once, untimed.
	for ti := range tabs {
		for pi := range params {
			wt := g.analyze(context.Background(), arrival{table: ti, param: pi, tenant: "setup"})
			t.mismatches += wt.mismatches
			t.errors += wt.errors
		}
	}

	stretch := float64(minArrivals) / serveRate
	dur := max(cfg.seconds, time.Duration(stretch*float64(time.Second)))
	schedule := poissonSchedule(cfg.seed, serveRate, dur)
	plan := planArrivals(cfg.seed+1, len(schedule), len(tabs), len(params))
	ctx, cancel := context.WithDeadline(context.Background(), cfg.stop)
	defer cancel()
	var before metainsight.MetricsSnapshot
	if cfg.trace {
		if _, err := call(ctx, client, http.MethodGet, d.base+"/metricsz", "", nil, &before); err != nil {
			return t, nil, err
		}
	}
	rt0 := readRuntime()
	cpu0 := processCPU()
	run, timings, end := g.runLoad(ctx, schedule, plan)
	cpu := processCPU() - cpu0
	rt := readRuntime().since(rt0)
	logf("CPU busy %.2f of %d CPUs", cpu.Seconds()/end.Seconds(), runtime.NumCPU())
	t.add(run.t)
	byParam := run.syncByParam(plan)
	syncLat := flatten(byParam)
	logf("serve-mixed: %d arrivals over %v, %d sync ok, %d jobs ok, peak client connections %d",
		len(schedule), dur, len(syncLat), len(run.jobDone), conns.peak.Load())

	if !cfg.trace {
		p50, n := geoMedian(byParam)
		fi, nf := percentile(append(msSlice(run.jobFirst), syncLat...), 0.5)
		jf, nj := percentile(msSlice(run.jobFirst), 0.5)
		v["setup_s"], _ = percentile(setups, 0.5)
		v["analyze_ms_p50"], v["first_insight_ms_p50"] = p50, fi
		v["cpu_ms_per_op"] = ratio(ms(cpu), float64(run.completions))
		v["alloc_mb_per_op"] = ratio(rt.allocBytes/1e6, float64(run.completions))
		v["heap_live_mb_end"] = heapLiveMB()
		logf("analyze_ms p50 (geometric mean of %d parameter sets' medians) over n=%d sync requests; first_insight_ms p50 over n=%d operations; jobs alone %.3g over n=%d",
			len(byParam), n, nf, jf, nj)
		return t, v, nil
	}

	// Traced run: daemon-side counters, then the in-process comparisons.
	var after metainsight.MetricsSnapshot
	if _, err := call(ctx, client, http.MethodGet, d.base+"/metricsz", "", nil, &after); err != nil {
		return t, nil, err
	}
	var list struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if _, err := call(ctx, client, http.MethodGet, d.base+"/v1/jobs", "", nil, &list); err != nil {
		return t, nil, err
	}
	counter := func(prefix string) float64 {
		var n int64
		for k, c := range after.Counters {
			if strings.HasPrefix(k, prefix) {
				n += c - before.Counters[k]
			}
		}
		return float64(n)
	}
	v["serve.admitted"] = counter("serve.admitted")
	v["serve.shed"] = counter("serve.shed.")
	v["serve.quota_denied"] = counter("serve.quota.denied")
	v["serve.jobs_retained"] = float64(len(list.Jobs))
	v["e2e.analyze_ms_p90"], _ = percentile(syncLat, 0.9)
	v["e2e.analyses_per_s"] = ratio(float64(run.completions), end.Seconds())
	v["serve.request_ms_p95"], _ = percentile(syncLat, 0.95)
	v["serve.job_first_insight_ms_p50"], _ = percentile(msSlice(run.jobFirst), 0.5)
	jobP50, _ := percentile(msSlice(run.jobDone), 0.5)
	v["serve.job_s_p50"] = jobP50 / 1e3
	v["checkpoint.writes_per_job"], _ = mean(run.ckWrites)
	stateBytes, err := dirBytes(d.state)
	if err != nil {
		return t, nil, err
	}
	v["checkpoint.state_mb_end"] = float64(stateBytes) / 1e6
	late := make([]time.Duration, 0, len(timings))
	for _, tm := range timings {
		late = append(late, tm.Late)
	}
	v["loadgen.late_ms_p99"], _ = percentile(msSlice(late), 0.99)
	v["loadgen.late_ms_max"], _ = percentile(msSlice(late), 1)
	runtimeMetrics(rt, run.completions, v)

	it, err := inprocess(cfg, tabs, params, want, run, plan, v)
	t.add(it)
	if err != nil {
		return t, nil, err
	}
	v["fail_share"] = ratio(float64(t.failed), float64(t.attempted))
	return t, v, nil
}

// inprocess replays every (table, parameters) pair of the mix in-process:
// untraced on sessions configured like the daemon's (for the daemon's
// overhead) alternating with traced (for the engine, cache, miner, pattern
// and ranker layers of the mix), and durable like a job (for the checkpoint
// overhead).
func inprocess(cfg runConfig, tabs []*metainsight.Dataset, params []serveParam, want [][]digest,
	run *serveRun, plan []arrival, v map[string]float64) (tally, error) {
	var t tally
	check := func(an *metainsight.Analysis, err error, w digest) bool {
		t.attempted++
		if err != nil || an == nil {
			t.failed++
			t.errors++
			return false
		}
		if d, derr := analysisDigest(an); derr != nil || d != w {
			t.failed++
			t.mismatches++
			return false
		}
		return true
	}
	timed := func(sess *metainsight.Session, req metainsight.Request) (*metainsight.Analysis, time.Duration, error) {
		t0 := time.Now()
		an, err := sess.Analyze(context.Background(), req)
		return an, time.Since(t0), err
	}

	// Untraced on one default session per table, alternating with traced
	// calls on one decorated session per pair, so host drift falls on both
	// alike. Round 0 warms both substrates.
	plainMed := make([][]float64, len(tabs))
	var plainAll, tracedAll []float64
	var layers layerTotals
	for ti, tab := range tabs {
		sess, err := metainsight.NewSession(tab)
		if err != nil {
			return t, err
		}
		plainMed[ti] = make([]float64, len(params))
		for pi, p := range params {
			ts, err := newTracedSession(tab, p.req)
			if err != nil {
				return t, err
			}
			var lats []float64
			for r := 0; r <= inprocRounds; r++ {
				an, lat, err := timed(sess, p.req)
				if check(an, err, want[ti][pi]) && r > 0 {
					lats = append(lats, ms(lat))
				}
				snap, scan := ts.obs.Snapshot(), ts.scan.counts()
				an, lat, err = timed(ts.sess, p.req)
				if check(an, err, want[ti][pi]) && r > 0 {
					layers.add(lat, an, ts.scan.counts().minus(scan), snap, ts.obs.Snapshot())
					tracedAll = append(tracedAll, ms(lat))
				}
			}
			_ = ts.sess.Close()
			plainMed[ti][pi], _ = percentile(lats, 0.5)
			plainAll = append(plainAll, lats...)
		}
		_ = sess.Close()
	}
	var overhead []float64
	for i, l := range run.sync {
		overhead = append(overhead, ms(l)-plainMed[plan[i].table][plan[i].param])
	}
	v["serve.overhead_ms_p50"], _ = percentile(overhead, 0.5)

	// Durable, like a job: a fresh checkpointing session per run, at the
	// daemon's default cadence, on the first table.
	var durable, plain float64
	for pi, p := range params {
		sess, err := metainsight.NewSession(tabs[0], metainsight.WithDurability(metainsight.DurabilityConfig{
			CheckpointDir: filepath.Join(cfg.dir, fmt.Sprintf("inproc-ck-%d", pi)), Every: 64}))
		if err != nil {
			return t, err
		}
		an, lat, err := timed(sess, p.req)
		_ = sess.Close()
		t.attempted++
		if err != nil || an == nil {
			t.failed++
			t.errors++
			continue
		}
		ins, _ := json.Marshal(an.Insights)
		st, _ := json.Marshal(an.Result.Stats)
		if jobDigest(ins, st) != want[0][pi] {
			t.failed++
			t.mismatches++
			continue
		}
		durable += lat.Seconds()
		plain += plainMed[0][pi] / 1e3
	}
	v["checkpoint.job_overhead_x"] = ratio(durable, plain)

	layers.metrics(v)
	up, _ := percentile(plainAll, 0.5)
	tp, _ := percentile(tracedAll, 0.5)
	v["trace.overhead_share"] = ratio(tp, up) - 1
	return t, nil
}

func mean(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), len(xs)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

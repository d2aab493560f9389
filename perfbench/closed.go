package main

// The analyze-small and analyze-tall workloads: one client in a closed
// loop calling Session.Analyze round-robin over the workload's tables.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"metainsight"
)

// analyzeRequest is the closed loop's request: unbudgeted, ranked top 10.
func analyzeRequest() metainsight.Request { return metainsight.Request{TopK: 10} }

func readTable(path string) (*metainsight.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return metainsight.ReadCSV(f, strings.TrimSuffix(filepath.Base(path), ".csv"))
}

// target is one table's session in the closed loop and the digest its
// analyses must reproduce.
type target struct {
	table  int // index of the table, which groups its latencies
	sess   *metainsight.Session
	traced *tracedSession // set in the traced phase
	want   digest
}

// closedRun is what one closed-loop phase measured. Latencies and
// first-insight delays (ms) of plain targets go to lat and first, grouped
// by table; latencies of traced targets go to tracedLat.
type closedRun struct {
	tally
	lat, first, tracedLat map[int][]float64
	wall, cpu             time.Duration
	rt                    runtimeDelta
	layers                layerTotals
}

// analyzeOnce runs one checked analysis and reports its latency and the
// delay to its first Progress callback (0 if it had none).
func analyzeOnce(tg target) (an *metainsight.Analysis, lat, first time.Duration, t tally) {
	var firstNanos atomic.Int64
	req := analyzeRequest()
	t0 := time.Now()
	req.Progress = func(*metainsight.MetaInsight) {
		firstNanos.CompareAndSwap(0, max(1, int64(time.Since(t0))))
	}
	an, err := tg.sess.Analyze(context.Background(), req)
	lat = time.Since(t0)
	t.attempted = 1
	switch {
	case err != nil || an == nil:
		t.failed, t.errors = 1, 1
	default:
		if d, derr := analysisDigest(an); derr != nil || d != tg.want {
			t.failed, t.mismatches = 1, 1
		}
	}
	return an, lat, time.Duration(firstNanos.Load()), t
}

// closedLoop analyzes round-robin over targets until it has run for minDur
// and completed minOps analyses, or until stop.
func closedLoop(targets []target, minDur time.Duration, minOps int, stop time.Time) closedRun {
	run := closedRun{lat: map[int][]float64{}, first: map[int][]float64{}, tracedLat: map[int][]float64{}}
	before, cpu0 := readRuntime(), processCPU()
	start := time.Now()
	for i := 0; ; i++ {
		if now := time.Now(); (now.Sub(start) >= minDur && i >= minOps) || now.After(stop) {
			break
		}
		tg := targets[i%len(targets)]
		var snap metainsight.MetricsSnapshot
		var scan scanCounts
		if tg.traced != nil {
			snap, scan = tg.traced.obs.Snapshot(), tg.traced.scan.counts()
		}
		an, lat, first, t := analyzeOnce(tg)
		run.add(t)
		if t.failed > 0 {
			continue
		}
		if tg.traced != nil {
			run.tracedLat[tg.table] = append(run.tracedLat[tg.table], ms(lat))
			run.layers.add(lat, an, tg.traced.scan.counts().minus(scan), snap, tg.traced.obs.Snapshot())
			continue
		}
		run.lat[tg.table] = append(run.lat[tg.table], ms(lat))
		if first > 0 {
			run.first[tg.table] = append(run.first[tg.table], ms(first))
		}
	}
	run.wall, run.cpu = time.Since(start), processCPU()-cpu0
	run.rt = readRuntime().since(before)
	return run
}

// setupAnalyze ingests every table, opens a session per table and runs one
// checked warm-up analysis on each (building postings and zone maps and
// warming plan caches). It returns the targets and the time it took.
func setupAnalyze(paths []string, want []digest) ([]target, time.Duration, tally, error) {
	var t tally
	start := time.Now()
	targets := make([]target, len(paths))
	for i, p := range paths {
		tab, err := readTable(p)
		if err != nil {
			return nil, 0, t, err
		}
		sess, err := metainsight.NewSession(tab)
		if err != nil {
			return nil, 0, t, err
		}
		targets[i] = target{table: i, sess: sess, want: want[i]}
		_, _, _, wt := analyzeOnce(targets[i])
		t.mismatches += wt.mismatches
		t.errors += wt.errors
	}
	return targets, time.Since(start), t, nil
}

func closeTargets(targets []target) {
	for _, tg := range targets {
		_ = tg.sess.Close() // Close never fails
	}
}

// analyzeOracle computes the oracle digest of every table.
func analyzeOracle(paths []string) ([]digest, error) {
	want := make([]digest, len(paths))
	for i, p := range paths {
		tab, err := readTable(p)
		if err != nil {
			return nil, err
		}
		if want[i], err = oracleDigest(tab, analyzeRequest()); err != nil {
			return nil, err
		}
	}
	return want, nil
}

const setupRepeats = 5

// runAnalyze runs an analyze-* workload and returns its tally and metrics.
func runAnalyze(cfg runConfig, paths []string) (tally, map[string]float64, error) {
	want, err := analyzeOracle(paths)
	if err != nil {
		return tally{}, nil, err
	}
	if cfg.trace {
		return traceAnalyze(cfg, paths, want)
	}
	var t tally
	var targets []target
	setups := make([]float64, 0, setupRepeats)
	for rep := 0; rep < setupRepeats; rep++ {
		closeTargets(targets)
		tg, d, st, err := setupAnalyze(paths, want)
		if err != nil {
			return t, nil, err
		}
		targets = tg
		t.mismatches += st.mismatches
		t.errors += st.errors
		setups = append(setups, d.Seconds())
	}
	run := closedLoop(targets, cfg.seconds, 100, cfg.stop)
	t.add(run.tally)
	done := float64(run.attempted - run.errors)
	v := map[string]float64{}
	v["setup_s"], _ = percentile(setups, 0.5)
	p50, n := geoMedian(run.lat)
	fi, nf := geoMedian(run.first)
	v["analyze_ms_p50"], v["first_insight_ms_p50"] = p50, fi
	v["cpu_ms_per_op"] = ratio(ms(run.cpu), done)
	v["alloc_mb_per_op"] = ratio(run.rt.allocBytes/1e6, done)
	v["heap_live_mb_end"] = heapLiveMB()
	runtime.KeepAlive(targets)
	logf("per-table analyze_ms p50:%s", groupMedians(run.lat))
	logf("per-table first_insight_ms p50:%s", groupMedians(run.first))
	logf("setup_s median of %d; analyze_ms p50 (geometric mean of %d tables' medians) over n=%d; first_insight_ms p50 over n=%d; wall throughput %.3f/s",
		len(setups), len(run.lat), n, nf, ratio(float64(n), run.wall.Seconds()))
	return t, v, nil
}

// traceAnalyze is the traced run of an analyze-* workload: a fresh ingest
// timed per layer, then a closed loop alternating plain and decorated
// sessions.
func traceAnalyze(cfg runConfig, paths []string, want []digest) (tally, map[string]float64, error) {
	var t tally
	v := map[string]float64{}
	tabs, err := ingestTables(paths, v)
	if err != nil {
		return t, nil, err
	}
	plain := make([]target, len(tabs))
	traced := make([]target, len(tabs))
	for i, tab := range tabs {
		sess, err := metainsight.NewSession(tab)
		if err != nil {
			return t, nil, err
		}
		plain[i] = target{table: i, sess: sess, want: want[i]}
		ts, err := newTracedSession(tab, analyzeRequest())
		if err != nil {
			return t, nil, err
		}
		traced[i] = target{table: i, sess: ts.sess, traced: ts, want: want[i]}
		// Self-test: the decorated session reproduces the plain one.
		a, _, _, wt := analyzeOnce(plain[i])
		b, _, _, wt2 := analyzeOnce(traced[i])
		wt.add(wt2)
		if a != nil && b != nil {
			da, _ := analysisDigest(a)
			db, _ := analysisDigest(b)
			if da != db {
				wt.mismatches++
			}
		}
		t.mismatches += wt.mismatches
		t.errors += wt.errors
	}
	// Plain and traced calls alternate, so host drift during the run falls
	// on both alike and their latency ratio isolates the tracing.
	mixed := make([]target, 0, 2*len(tabs))
	for i := range tabs {
		mixed = append(mixed, plain[i], traced[i])
	}
	run := closedLoop(mixed, cfg.seconds, 200, cfg.stop)
	t.add(run.tally)
	run.layers.metrics(v)
	runtimeMetrics(run.rt, run.attempted-run.errors, v)
	up50, un := geoMedian(run.lat)
	v["e2e.analyze_ms_p90"], _ = percentile(flatten(run.lat), 0.9)
	v["e2e.analyses_per_s"] = ratio(float64(un), sum(flatten(run.lat))/1e3)
	tp50, tn := geoMedian(run.tracedLat)
	v["trace.overhead_share"] = ratio(tp50, up50) - 1
	v["fail_share"] = ratio(float64(t.failed), float64(t.attempted))
	notExercised(cfg.metrics, v, "checkpoint.", "serve.", "loadgen.")
	logf("untraced analyze_ms p50 %.1f, p90 %.1f over n=%d; traced p50 %.1f over n=%d", up50, v["e2e.analyze_ms_p90"], un, tp50, tn)
	return t, v, nil
}

// ingestTables loads every table and reports the dataset layer into v:
// time in ReadCSV, time to first touch every column's bitmap postings, and
// the postings' bytes per row.
func ingestTables(paths []string, v map[string]float64) ([]*metainsight.Dataset, error) {
	tabs := make([]*metainsight.Dataset, len(paths))
	var ingest, index time.Duration
	var postBytes, rows float64
	for i, p := range paths {
		t0 := time.Now()
		tab, err := readTable(p)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, col := range tab.Dimensions() {
			col.PostingsBitmap(0)
		}
		ingest += t1.Sub(t0)
		index += time.Since(t1)
		postBytes += float64(tab.PostingsStats().CompressedBytes)
		rows += float64(tab.Rows())
		tabs[i] = tab
	}
	v["dataset.ingest_s"] = ingest.Seconds()
	v["dataset.index_build_s"] = index.Seconds()
	v["dataset.postings_bytes_per_row"] = ratio(postBytes, rows)
	return tabs, nil
}

// notExercised reports 0 for the per-layer metrics of layers the workload
// does not run.
func notExercised(defs []metricDef, v map[string]float64, prefixes ...string) {
	for _, d := range defs {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				v[d.Name] = 0
			}
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

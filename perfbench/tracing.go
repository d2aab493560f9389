package main

// The traced run's instruments. They time calls into the program's layers
// from outside — a decorator around the scan substrate, a session-level
// observer read before and after each call, and the returned Stats — and
// add no spans inside the program.

import (
	"sync/atomic"
	"time"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/model"
)

// rowPlanningSubstrate is what the decorator wraps: a substrate that also
// predicts scanned rows. The engine's cost accounting consults RowPlanner,
// so a decorator that hid it would change costs and therefore results.
type rowPlanningSubstrate interface {
	engine.Substrate
	engine.RowPlanner
}

// timedSubstrate counts and times every physical scan of the substrate it
// wraps. It is safe for concurrent use.
type timedSubstrate struct {
	inner                     rowPlanningSubstrate
	unitCalls, augCalls, errs atomic.Int64
	rows, busyNanos           atomic.Int64
}

func (t *timedSubstrate) record(start time.Time, rows int, err error) {
	t.busyNanos.Add(int64(time.Since(start)))
	t.rows.Add(int64(rows))
	if err != nil {
		t.errs.Add(1)
	}
}

func (t *timedSubstrate) ScanUnit(s model.Subspace, breakdown string) (*cache.Unit, int, error) {
	t.unitCalls.Add(1)
	start := time.Now()
	u, rows, err := t.inner.ScanUnit(s, breakdown)
	t.record(start, rows, err)
	return u, rows, err
}

func (t *timedSubstrate) ScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error) {
	t.augCalls.Add(1)
	start := time.Now()
	us, rows, err := t.inner.ScanAugmented(base, breakdown, ext)
	t.record(start, rows, err)
	return us, rows, err
}

// PlannedRows forwards engine.RowPlanner.
func (t *timedSubstrate) PlannedRows(s model.Subspace) int { return t.inner.PlannedRows(s) }

// scanCounts is a snapshot of a timedSubstrate's counters.
type scanCounts struct {
	unit, aug, errs, rows int64
	busy                  time.Duration
}

func (t *timedSubstrate) counts() scanCounts {
	return scanCounts{
		unit: t.unitCalls.Load(), aug: t.augCalls.Load(), errs: t.errs.Load(),
		rows: t.rows.Load(), busy: time.Duration(t.busyNanos.Load()),
	}
}

func (a scanCounts) minus(b scanCounts) scanCounts {
	return scanCounts{a.unit - b.unit, a.aug - b.aug, a.errs - b.errs, a.rows - b.rows, a.busy - b.busy}
}

// minMaxColumns mirrors the session's derivation of the MIN/MAX accumulator
// set: the columns some mined measure aggregates by MIN or MAX. The
// requests the benchmark sends have no custom patterns or correlations, and
// the impact measure is the default COUNT(*).
func minMaxColumns(req metainsight.Request) map[string]bool {
	need := map[string]bool{}
	for _, m := range req.Measures {
		if m.Agg == model.AggMin || m.Agg == model.AggMax {
			need[m.Column] = true
		}
	}
	return need
}

// tracedSession is a session whose scans go through a timedSubstrate and
// whose metrics go to one session-level observer. A per-request observer
// would be wrong here: the session keys its substrate registry by observer
// identity, so it would rebuild the substrate (and lose its plan cache) on
// every call.
type tracedSession struct {
	sess *metainsight.Session
	obs  *metainsight.Observer
	scan *timedSubstrate
}

// newTracedSession builds the decorator with the same options the session
// would give its own substrate for req, and the session over it.
func newTracedSession(tab *metainsight.Dataset, req metainsight.Request) (*tracedSession, error) {
	ob := metainsight.NewObserver(metainsight.ObserverOptions{})
	scan := &timedSubstrate{inner: engine.NewColumnarSubstrate(tab,
		engine.WithMinMaxColumns(minMaxColumns(req)),
		engine.WithScanParallelism(0),
		engine.WithScanObserver(ob))}
	sess, err := metainsight.NewSession(tab, metainsight.WithObserver(ob), metainsight.WithSubstrate(scan))
	if err != nil {
		return nil, err
	}
	return &tracedSession{sess: sess, obs: ob, scan: scan}, nil
}

// layerTotals accumulates per-layer quantities over the traced calls.
type layerTotals struct {
	calls int
	wall  time.Duration
	scan  scanCounts
	phase map[string]float64
	// Sums of Stats fields and of candidates over the calls.
	expand, dataPattern, metaInsight, pruned1, pruned2, boundSkips int64
	patterns, shortSeries, served, queries, candidates             int64
	qHits, qLookups, pHits, pLookups                               int64
	cost                                                           float64
}

// add records one traced call: its wall time, result, and the differences
// of the scan counters and observer phase totals around it.
func (l *layerTotals) add(wall time.Duration, an *metainsight.Analysis, scan scanCounts, before, after metainsight.MetricsSnapshot) {
	if l.phase == nil {
		l.phase = map[string]float64{}
	}
	l.calls++
	l.wall += wall
	l.scan.unit += scan.unit
	l.scan.aug += scan.aug
	l.scan.errs += scan.errs
	l.scan.rows += scan.rows
	l.scan.busy += scan.busy
	for k, v := range after.PhaseSeconds {
		l.phase[k] += v - before.PhaseSeconds[k]
	}
	st := an.Result.Stats
	l.expand += st.ExpandUnits
	l.dataPattern += st.DataPatternUnits
	l.metaInsight += st.MetaInsightUnits
	l.pruned1 += st.Pruned1
	l.pruned2 += st.Pruned2
	l.boundSkips += st.BoundSkips + st.BoundScanSkips
	l.patterns += st.PatternsFound
	l.shortSeries += st.ShortSeriesSkips
	l.served += st.CacheServed
	l.queries += st.ExecutedQueries + st.AugmentedQueries
	l.candidates += int64(len(an.Result.MetaInsights))
	l.qHits += st.QueryCacheStats.Hits
	l.qLookups += st.QueryCacheStats.Hits + st.QueryCacheStats.Misses
	l.pHits += st.PatternCacheStats.Hits
	l.pLookups += st.PatternCacheStats.Hits + st.PatternCacheStats.Misses
	l.cost += st.CostUsed
}

// metrics renders the engine, cache, miner, pattern and ranker metrics,
// per traced call.
func (l *layerTotals) metrics(out map[string]float64) {
	n := float64(l.calls)
	per := func(v int64) float64 { return ratio(float64(v), n) }
	out["engine.scan_unit.calls"] = per(l.scan.unit)
	out["engine.scan_aug.calls"] = per(l.scan.aug)
	out["engine.scan.busy_s"] = ratio(l.scan.busy.Seconds(), n)
	out["engine.scan.rows"] = per(l.scan.rows)
	out["engine.scan.errors"] = per(l.scan.errs)
	out["engine.scan_share"] = ratio(l.scan.busy.Seconds(), l.wall.Seconds())
	out["engine.scans_per_query"] = ratio(float64(l.scan.unit+l.scan.aug), float64(l.queries))
	out["cache.query.hit_rate"] = ratio(float64(l.qHits), float64(l.qLookups))
	out["cache.pattern.hit_rate"] = ratio(float64(l.pHits), float64(l.pLookups))
	out["cache.served_per_query"] = ratio(float64(l.served), float64(l.queries))
	out["miner.units.expand"] = per(l.expand)
	out["miner.units.datapattern"] = per(l.dataPattern)
	out["miner.units.metainsight"] = per(l.metaInsight)
	out["miner.pruned1"] = per(l.pruned1)
	out["miner.pruned2"] = per(l.pruned2)
	out["miner.bound_skips"] = per(l.boundSkips)
	out["miner.cost_used"] = ratio(l.cost, n)
	out["miner.stored_ratio"] = ratio(float64(l.candidates), float64(l.metaInsight))
	for _, ph := range []string{"init", "expand", "evaluate", "commit"} {
		out["miner.phase."+ph+"_s"] = ratio(l.phase[ph], n)
	}
	out["pattern.patterns_found"] = per(l.patterns)
	out["pattern.short_series_skips"] = per(l.shortSeries)
	out["ranker.rank_s"] = ratio(l.phase["rank"], n)
	out["ranker.candidates"] = per(l.candidates)
}

// runtimeMetrics renders the runtime layer over ops operations.
func runtimeMetrics(d runtimeDelta, ops int, out map[string]float64) {
	n := float64(ops)
	out["runtime.mallocs_per_op"] = ratio(d.allocObjects, n)
	out["runtime.gc_cycles_per_op"] = ratio(d.gcCycles, n)
	out["runtime.gc_cpu_share"] = d.gcCPUShare
	out["runtime.sched_latency_ms_p99"] = ms(d.schedP99)
}

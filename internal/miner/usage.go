package miner

import (
	"fmt"
	"sort"

	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// This file implements the miner's canonical accounting. Workers execute
// compute units speculatively and purely — they materialize data through the
// engine's quiet (unmetered) paths and record *usage events* describing the
// cache lookups and scans their unit logically performs. The dispatcher
// replays those events against a simulated cache in canonical commit order,
// charging the meter and the run statistics as a single-worker run would.
// Because the replay depends only on the commit order (which is
// deterministic) and on data (which is deterministic), ExecutedQueries,
// AugmentedQueries, CacheServed, CostUsed and the cache hit/miss statistics
// are bit-identical for any worker count — the at-most-once query accounting
// the paper's Fig 6/7 and Table 3 assume.
//
// Fault handling follows the same discipline. An injected fault is a pure
// function of the query's canonical fingerprint, so the replay *recomputes*
// each query's resolution rather than trusting anything the worker observed:
// retry costs, failures, breaker transitions and the resulting trace events
// are all decided here, in commit order. The circuit breaker likewise lives
// here — it only modulates the cost accounting of queries that fail anyway
// (fast-fail suppresses retry spending while open), never a query's outcome,
// so it cannot invalidate speculative worker results. When the caches are
// byte-bounded, the simulation evicts in commit-order FIFO, producing the
// deterministic Stats.Evictions; the physical caches evict independently
// (per lock shard, in physical insertion order), which only ever causes
// identical re-scans.

// usageKind tags one recorded usage event.
type usageKind int

const (
	// useUnit is one logical unit query (the paper's BasicQuery or the
	// expand module's group-by probe): served if cached, else one scan.
	useUnit usageKind = iota
	// useEval is one data-pattern evaluation: free if memoized, else one
	// evaluation charge.
	useEval
	// useImpact is one impact lookup (Equation 2): free if any unit of the
	// subspace is cached, else one fallback unit scan.
	useImpact
	// useSiblings is one augmented-query prefetch decision for a
	// subspace-extending HDS: skipped if every sibling unit is cached, else
	// one augmented scan populating the whole sibling group.
	useSiblings
)

// unitUse describes one unit query: its cache key, the analytic cost of the
// scan that a miss would execute, and the unit's approximate size.
type unitUse struct {
	key   cache.UnitKey
	cost  float64
	bytes int64
	// failed records that the worker's materialization errored. For injected
	// faults the flag is redundant (the replay recomputes the resolution from
	// the fingerprint); it matters only for real substrate errors, which are
	// counted as failed but charged nothing.
	failed bool
}

// evalUse describes one pattern evaluation: the data-scope key and the
// evaluation's measured size (0 when the pattern cache is unbounded).
type evalUse struct {
	scope string
	bytes int64
}

// siblingUse describes one augmented-prefetch decision.
type siblingUse struct {
	// scopes are the HDS scope unit keys; the prefetch fires iff any is
	// missing from the (simulated) cache.
	scopes []cache.UnitKey
	// fp is the augmented scan's canonical fingerprint.
	fp string
	// cost is the analytic cost of the augmented scan.
	cost float64
	// failed records that the augmented query failed for a real (non-
	// injected) reason; the unit fell back to per-sibling basic queries.
	failed bool
	// siblings are the non-empty sibling units the scan produces.
	siblings []unitUse
}

// usageEvent is one recorded event; exactly the field for its kind is set.
type usageEvent struct {
	kind    usageKind
	unit    unitUse             // useUnit
	eval    evalUse             // useEval
	impact  *engine.ImpactProbe // useImpact
	sibling *siblingUse         // useSiblings
}

// statDelta carries the worker-side counters of one compute unit; the
// dispatcher folds it into Stats when (and only when) the unit commits.
type statDelta struct {
	expandUnits      int64
	dataPatternUnits int64
	metaInsightUnits int64
	patternsFound    int64
	pruned1          int64
	boundSkips       int64
	boundScanSkips   int64
	shortSeriesSkips int64
	extractErrors    int64
}

// recorder accumulates the usage events of one compute unit, in the order a
// sequential execution performs them.
type recorder struct {
	events []usageEvent
}

func (r *recorder) recordUnit(u *cache.Unit, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, unit: unitUse{
		key:   u.Key,
		cost:  cost,
		bytes: u.ApproxBytes(),
	}})
}

// recordUnitFail records a unit query whose materialization errored; the
// replay decides (from the fingerprint) whether the failure was injected and
// what it costs.
func (r *recorder) recordUnitFail(key cache.UnitKey, cost float64) {
	r.events = append(r.events, usageEvent{kind: useUnit, unit: unitUse{
		key:    key,
		cost:   cost,
		failed: true,
	}})
}

func (r *recorder) recordEval(scopeKey string, bytes int64) {
	r.events = append(r.events, usageEvent{kind: useEval, eval: evalUse{scope: scopeKey, bytes: bytes}})
}

func (r *recorder) recordImpact(p *engine.ImpactProbe) {
	r.events = append(r.events, usageEvent{kind: useImpact, impact: p})
}

func (r *recorder) recordSiblings(s *siblingUse) {
	r.events = append(r.events, usageEvent{kind: useSiblings, sibling: s})
}

// accounting replays usage events against a simulated query cache and
// pattern cache, mirroring exactly what a single worker executing the
// committed units in commit order would have been charged. It also forwards
// the charges to the engine's meter, so cost budgets observe only committed
// (deterministic) spending.
type accounting struct {
	meter     *engine.Meter
	qcEnabled bool
	pcEnabled bool
	evalCost  float64
	// obs receives one trace event per replayed charge/lookup. The replay
	// runs on the dispatcher goroutine in commit order, so the emitted
	// events read as the canonical single-worker execution; traced caches
	// the Tracing() check so untraced runs skip label construction.
	obs    *obs.Observer
	traced bool

	// inj recomputes fault resolutions in commit order; injEnabled caches
	// the check so fault-free runs skip fingerprint construction entirely.
	inj        *faults.Injector
	injEnabled bool
	// breaker is driven exclusively here, in commit order, which makes its
	// state — and the retry spending it suppresses — worker-count-invariant.
	breaker *faults.Breaker

	qc         map[cache.UnitKey]int64 // simulated query cache: key → bytes
	qcOrder    []cache.UnitKey         // commit-order FIFO eviction queue
	qcBytes    int64
	qcMaxBytes int64 // 0 = unbounded

	pc         map[string]int64 // simulated pattern cache: scope → bytes
	pcOrder    []string
	pcBytes    int64
	pcMaxBytes int64

	executed         int64
	augmented        int64
	served           int64
	qcHits, qcMisses int64
	pcHits, pcMisses int64
	prefetchFailures int64
	failedUnits      int64
	retries          int64
	breakerTrips     int64
	evictions        int64
	cost             float64
}

// newAccounting creates the simulation, seeded from the physical caches'
// current contents so warm caches shared across runs are credited with the
// hits they will serve. Warm entries enter the eviction queues in sorted key
// order (their physical insertion order is not recorded; sorting keeps the
// seed deterministic).
func newAccounting(eng *engine.Engine, pc *cache.PatternCache[*pattern.ScopeEvaluation], o *obs.Observer) *accounting {
	inj := eng.Faults()
	a := &accounting{
		meter:      eng.Meter(),
		qcEnabled:  eng.QueryCache().Enabled(),
		pcEnabled:  pc.Enabled(),
		evalCost:   eng.EvaluationCost(),
		obs:        o,
		traced:     o.Tracing(),
		inj:        inj,
		injEnabled: inj.Enabled(),
		breaker:    faults.NewBreaker(inj.Retry().BreakerThreshold),
		qc:         eng.QueryCache().Snapshot(),
		qcMaxBytes: eng.QueryCache().MaxBytes(),
		pc:         pc.KeySizes(),
		pcMaxBytes: pc.MaxBytes(),
	}
	for _, b := range a.qc {
		a.qcBytes += b
	}
	if a.qcMaxBytes > 0 && len(a.qc) > 0 {
		a.qcOrder = make([]cache.UnitKey, 0, len(a.qc))
		for k := range a.qc {
			a.qcOrder = append(a.qcOrder, k)
		}
		sort.Slice(a.qcOrder, func(i, j int) bool {
			if a.qcOrder[i].Subspace != a.qcOrder[j].Subspace {
				return a.qcOrder[i].Subspace < a.qcOrder[j].Subspace
			}
			return a.qcOrder[i].Breakdown < a.qcOrder[j].Breakdown
		})
	}
	for _, b := range a.pc {
		a.pcBytes += b
	}
	if a.pcMaxBytes > 0 && len(a.pc) > 0 {
		a.pcOrder = make([]string, 0, len(a.pc))
		for k := range a.pc {
			a.pcOrder = append(a.pcOrder, k)
		}
		sort.Strings(a.pcOrder)
	}
	return a
}

func (a *accounting) charge(cost float64) {
	a.cost += cost
	a.meter.AddCost(cost)
}

// store simulates a query-cache Put, replacing any previous entry, then
// enforces the byte bound by evicting the oldest entries (commit-order FIFO,
// never the entry just stored).
func (a *accounting) store(k cache.UnitKey, bytes int64) {
	if old, ok := a.qc[k]; ok {
		a.qcBytes -= old
	} else if a.qcMaxBytes > 0 {
		a.qcOrder = append(a.qcOrder, k)
	}
	a.qc[k] = bytes
	a.qcBytes += bytes
	if a.qcMaxBytes > 0 {
		for a.qcBytes > a.qcMaxBytes && len(a.qcOrder) > 1 && a.qcOrder[0] != k {
			victim := a.qcOrder[0]
			a.qcOrder = a.qcOrder[1:]
			if old, ok := a.qc[victim]; ok {
				delete(a.qc, victim)
				a.qcBytes -= old
				a.evictions++
				if a.traced {
					a.obs.Event(obs.EvEvict, keyLabel(victim), "query-cache", float64(old))
				}
			}
		}
	}
}

// storeEval simulates a pattern-cache Put with the same eviction semantics.
func (a *accounting) storeEval(key string, bytes int64) {
	if old, ok := a.pc[key]; ok {
		a.pcBytes -= old
	} else if a.pcMaxBytes > 0 {
		a.pcOrder = append(a.pcOrder, key)
	}
	a.pc[key] = bytes
	a.pcBytes += bytes
	if a.pcMaxBytes > 0 {
		for a.pcBytes > a.pcMaxBytes && len(a.pcOrder) > 1 && a.pcOrder[0] != key {
			victim := a.pcOrder[0]
			a.pcOrder = a.pcOrder[1:]
			if old, ok := a.pc[victim]; ok {
				delete(a.pc, victim)
				a.pcBytes -= old
				a.evictions++
				if a.traced {
					a.obs.Event(obs.EvEvict, victim, "pattern-cache", float64(old))
				}
			}
		}
	}
}

// keyLabel renders a unit key as a trace label, matching DataScope.Key's
// "subspace|breakdown" shape.
func keyLabel(k cache.UnitKey) string { return k.Subspace + "|" + k.Breakdown }

// applyFailure charges one permanently failed query: its retry/backoff and
// latency spending (suppressed to the first attempt's latency while the
// breaker is open — fail-fast load shedding), the failure counters, and the
// breaker transition.
func (a *accounting) applyFailure(label string, res faults.Resolution) {
	a.failedUnits++
	cost := res.FaultCost
	retries := res.Retries()
	detail := res.Reason.String()
	if a.breaker.Open() {
		cost = res.FirstCost
		retries = 0
		detail += "; breaker open: fast-fail"
	}
	a.retries += retries
	a.charge(cost)
	if a.traced {
		if retries > 0 {
			a.obs.Event(obs.EvQueryRetry, label, fmt.Sprintf("%d failed retries", retries), cost)
		}
		a.obs.Event(obs.EvQueryFail, label, detail, cost)
	}
	if a.breaker.Failure() {
		a.breakerTrips++
		if a.traced {
			a.obs.Event(obs.EvBreakerOpen, label,
				fmt.Sprintf("%d consecutive failures", a.breaker.Consecutive()), 0)
		}
	}
}

// applyExecSuccess folds the fault-side effects of one successfully executed
// scan: retry accounting and closing the breaker. Returns the fault cost to
// add to the scan's charge.
func (a *accounting) applyExecSuccess(label string, res faults.Resolution) float64 {
	a.breaker.Success()
	if res.Attempts > 1 {
		a.retries += res.Retries()
		if a.traced {
			a.obs.Event(obs.EvQueryRetry, label,
				fmt.Sprintf("succeeded after %d attempts", res.Attempts), res.FaultCost)
		}
	}
	return res.FaultCost
}

// applyUnit replays one unit query: its fault resolution is recomputed from
// the canonical fingerprint (a failing query fails regardless of cache
// state, mirroring the engine's purity rule); a cached key is served, a
// missing one is scanned (counted, charged) and stored.
func (a *accounting) applyUnit(u unitUse) {
	var res faults.Resolution
	if a.injEnabled {
		fp := engine.UnitFingerprint(u.key.Subspace, u.key.Breakdown)
		res = a.inj.Resolve(fp, u.cost)
		if !res.OK {
			a.applyFailure(keyLabel(u.key), res)
			return
		}
	}
	if u.failed {
		// Real (non-injected) substrate error: skipped-but-accounted, no
		// charge — the scan never completed.
		a.failedUnits++
		if a.traced {
			a.obs.Event(obs.EvQueryFail, keyLabel(u.key), "substrate error", 0)
		}
		return
	}
	if !a.qcEnabled {
		a.qcMisses++
		a.executed++
		a.meter.AddExecuted(1)
		a.charge(u.cost + a.applyExecSuccess(keyLabel(u.key), res))
		if a.traced {
			a.obs.Event(obs.EvQueryExec, keyLabel(u.key), "query-cache disabled", u.cost)
		}
		return
	}
	if _, ok := a.qc[u.key]; ok {
		a.qcHits++
		a.served++
		a.meter.AddServed(1)
		if a.traced {
			a.obs.Event(obs.EvCacheHit, keyLabel(u.key), "query-cache", 0)
		}
		return
	}
	a.qcMisses++
	a.executed++
	a.meter.AddExecuted(1)
	a.charge(u.cost + a.applyExecSuccess(keyLabel(u.key), res))
	a.store(u.key, u.bytes)
	if a.traced {
		a.obs.Event(obs.EvCacheMiss, keyLabel(u.key), "query-cache", 0)
		a.obs.Event(obs.EvQueryExec, keyLabel(u.key), "", u.cost)
	}
}

// apply replays one usage event.
func (a *accounting) apply(ev usageEvent) {
	switch ev.kind {
	case useUnit:
		a.applyUnit(ev.unit)
	case useEval:
		if a.pcEnabled {
			if _, ok := a.pc[ev.eval.scope]; ok {
				a.pcHits++
				if a.traced {
					a.obs.Event(obs.EvCacheHit, ev.eval.scope, "pattern-cache", 0)
				}
				return
			}
			a.storeEval(ev.eval.scope, ev.eval.bytes)
		}
		a.pcMisses++
		a.charge(a.evalCost)
		if a.traced {
			a.obs.Event(obs.EvPatternEval, ev.eval.scope, "", a.evalCost)
		}
	case useImpact:
		p := ev.impact
		// Purity rule (see Engine.ImpactUnmetered): the fallback scan's fate
		// is resolved before the cache probes, so the outcome cannot depend
		// on simulated cache state.
		if a.injEnabled {
			fp := engine.UnitFingerprint(p.Fallback.Subspace, p.Fallback.Breakdown)
			if res := a.inj.Resolve(fp, p.Cost); !res.OK {
				a.applyFailure(keyLabel(p.Fallback), res)
				return
			}
		}
		if a.qcEnabled {
			// A cached unit on any unfiltered breakdown serves the impact
			// value for free (uncounted peek, as in Engine.Impact).
			for _, dim := range p.Probe {
				if _, ok := a.qc[cache.UnitKey{Subspace: p.Subspace, Breakdown: dim}]; ok {
					if a.traced {
						a.obs.Event(obs.EvCacheHit, p.Subspace+"|"+dim, "impact-probe", 0)
					}
					return
				}
			}
		}
		a.applyUnit(unitUse{key: p.Fallback, cost: p.Cost, bytes: p.Bytes})
	case useSiblings:
		s := ev.sibling
		missing := false
		for _, k := range s.scopes {
			if _, ok := a.qc[k]; !ok {
				missing = true
				break
			}
		}
		rep := ""
		if a.traced && len(s.scopes) > 0 {
			rep = keyLabel(s.scopes[0])
		}
		if !missing {
			// Every sibling unit cached: the prefetch is skipped.
			if a.traced {
				a.obs.Event(obs.EvCacheHit, rep, "prefetch skipped: all siblings cached", 0)
			}
			return
		}
		if a.injEnabled {
			// Recompute the augmented scan's fate from its fingerprint; the
			// worker-side failed flag is ignored for injected decisions (it
			// depends on whether the worker physically issued the scan, which
			// can vary with worker count — the fingerprint cannot).
			if res := a.inj.Resolve(s.fp, s.cost); !res.OK {
				a.prefetchFailures++
				a.applyFailure(s.fp, res)
				return
			}
		}
		if s.failed {
			a.prefetchFailures++
			if a.traced {
				a.obs.Event(obs.EvCacheMiss, rep, "augmented prefetch failed; per-sibling fallback", 0)
			}
			return
		}
		a.executed++
		a.augmented++
		a.meter.AddExecuted(1)
		a.meter.AddAugmented(1)
		faultCost := 0.0
		if a.injEnabled {
			faultCost = a.applyExecSuccess(s.fp, a.inj.Resolve(s.fp, s.cost))
		}
		a.charge(s.cost + faultCost)
		for _, sib := range s.siblings {
			a.store(sib.key, sib.bytes)
		}
		if a.traced {
			a.obs.Event(obs.EvQueryExec, rep,
				fmt.Sprintf("augmented prefetch: %d siblings", len(s.siblings)), s.cost)
		}
	}
}

// queryStats reports the simulated query cache as cache.Stats. Bytes is
// best-effort: an impact-fallback unit observed only through a cached peek
// reports size 0 (sizes are reporting-only and excluded from the
// determinism guarantee when the cache is unbounded; bounded caches record
// sizes deterministically).
func (a *accounting) queryStats() cache.Stats {
	return cache.Stats{
		Hits:    a.qcHits,
		Misses:  a.qcMisses,
		Entries: int64(len(a.qc)),
		Bytes:   a.qcBytes,
	}
}

// patternStats reports the simulated pattern cache as cache.Stats.
func (a *accounting) patternStats() cache.Stats {
	return cache.Stats{
		Hits:    a.pcHits,
		Misses:  a.pcMisses,
		Entries: int64(len(a.pc)),
		Bytes:   a.pcBytes,
	}
}

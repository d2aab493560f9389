// Package engine is the query substrate MetaInsight mines over. The paper's
// implementation issued SQL-style queries against Microsoft Excel's query
// interface (Table 2); this package implements the equivalent engine over the
// in-memory columnar tables of internal/dataset: BasicQuery and
// AugmentedQuery with group-by aggregation across all measures, integrated
// with the query cache of internal/cache.
//
// Because an in-process scan is orders of magnitude cheaper than the paper's
// inter-process query round trips, the engine also meters a deterministic
// cost per executed query (a fixed per-query overhead plus a per-row scan
// cost). Mining budgets can be denominated in these cost units, making the
// cache/queue ablations of Figure 6 both visible and exactly reproducible.
package engine

import (
	"fmt"
	"sync/atomic"

	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/faults"
	"metainsight/internal/model"
	"metainsight/internal/obs"
)

// CostModel assigns deterministic cost units to engine work. Units are
// arbitrary but are calibrated so that one unit ≈ one millisecond of the
// paper's Excel-backed substrate.
type CostModel struct {
	// PerQuery is the fixed overhead charged for every executed (non-cached)
	// query, standing in for the query-interface round trip.
	PerQuery float64
	// PerRow is charged for every record scanned by an executed query.
	PerRow float64
	// PerEvaluation is charged for each data-pattern evaluation performed
	// (pattern-cache hits are free).
	PerEvaluation float64
}

// DefaultCostModel approximates the paper's environment: a ~5ms query
// round trip, ~2000 rows scanned per ms, and a ~0.2ms pattern evaluation.
func DefaultCostModel() CostModel {
	return CostModel{PerQuery: 5, PerRow: 0.0005, PerEvaluation: 0.2}
}

// Meter accumulates cost units and query counts. It is safe for concurrent
// use; costs are stored in nano-units to allow atomic addition.
type Meter struct {
	costNanos atomic.Int64
	executed  atomic.Int64 // queries that actually scanned the table
	served    atomic.Int64 // logical queries answered from the cache
	augmented atomic.Int64 // executed queries that were augmented scans
}

// AddCost adds cost units to the meter.
func (m *Meter) AddCost(units float64) {
	m.costNanos.Add(int64(units * 1e9))
}

// Cost returns the accumulated cost in units.
func (m *Meter) Cost() float64 { return float64(m.costNanos.Load()) / 1e9 }

// CostNanos returns the accumulated cost in exact nano-units. Checkpointing
// snapshots this integer rather than the float units: AddCost truncates per
// call, so restoring a sum of float units would not be bit-exact.
func (m *Meter) CostNanos() int64 { return m.costNanos.Load() }

// AddCostNanos adds exact nano-units; the checkpoint restore path uses it to
// reproduce the pre-crash meter bit for bit.
func (m *Meter) AddCostNanos(n int64) { m.costNanos.Add(n) }

// ExecutedQueries returns the number of queries that scanned the table.
func (m *Meter) ExecutedQueries() int64 { return m.executed.Load() }

// ServedQueries returns the number of logical queries answered from cache.
func (m *Meter) ServedQueries() int64 { return m.served.Load() }

// AugmentedQueries returns how many executed queries were augmented scans.
func (m *Meter) AugmentedQueries() int64 { return m.augmented.Load() }

// AddExecuted adds n to the executed-query count. The miner uses it to apply
// canonically-ordered accounting computed outside the engine's metered paths.
func (m *Meter) AddExecuted(n int64) { m.executed.Add(n) }

// AddServed adds n to the cache-served query count.
func (m *Meter) AddServed(n int64) { m.served.Add(n) }

// AddAugmented adds n to the augmented-query count.
func (m *Meter) AddAugmented(n int64) { m.augmented.Add(n) }

// Series is the result of a basic query: the raw data distribution of a data
// scope (aggregate values of the measure over the breakdown's sibling group).
// Groups with no records are omitted; Keys is in domain order.
type Series struct {
	Scope  model.DataScope
	Keys   []string
	Values []float64
}

// Len returns the number of groups in the series.
func (s *Series) Len() int { return len(s.Keys) }

// augKey identifies one augmented scan: the paper's AugmentedQuery(ds, d) is
// one scan filtered by ds.Subspace \ d, grouped by (ds.Breakdown, d).
type augKey struct {
	base      string // key of ds.Subspace.Without(d)
	breakdown string
	ext       string // the augmentation dimension d
}

// unitRes is a metered unit-flight result: the unit plus whether this flight
// actually scanned (false when a concurrent leader's Put was found by the
// double-check, in which case the caller counts as served), or the
// substrate's error.
type unitRes struct {
	u       *cache.Unit
	scanned bool
	err     error
}

// quietUnitRes is a quiet unit-flight result.
type quietUnitRes struct {
	u   *cache.Unit
	err error
}

// augRes is an augmented-flight result (metered or quiet).
type augRes struct {
	units map[string]*cache.Unit
	err   error
}

// Engine executes queries for one table against one measure set. All query
// paths are safe for concurrent use: concurrent cache misses on the same key
// coalesce into a single scan via per-path single-flight groups, so a query
// is executed at most once per unit no matter how many workers race for it
// (the at-most-once assumption behind the paper's Fig 7 / Table 3 counts).
type Engine struct {
	tab      *dataset.Table
	measures []model.Measure
	impact   model.Measure
	qc       *cache.QueryCache
	cost     CostModel
	meter    *Meter
	obs      *obs.Observer
	sub      Substrate
	inj      *faults.Injector
	totalImp float64
	bnd      impactBounds // lazily built impact-sum summaries (bounds.go)

	// Single-flight groups. Metered and quiet paths use separate groups: a
	// quiet follower piggybacking on a metered leader (or vice versa) would
	// blur which path paid for the scan.
	meteredUnits cache.Flight[cache.UnitKey, unitRes]
	meteredAug   cache.Flight[augKey, augRes]
	quietUnits   cache.Flight[cache.UnitKey, quietUnitRes]
	quietAug     cache.Flight[augKey, augRes]
}

// Config configures an Engine.
type Config struct {
	// Measures is the measure set M. If empty, Table.DefaultMeasures is used.
	Measures []model.Measure
	// ImpactMeasure must be additive (SUM or COUNT); defaults to COUNT(*),
	// the impact measure used throughout the paper's evaluation.
	ImpactMeasure model.Measure
	// QueryCache to use; nil creates an enabled cache.
	QueryCache *cache.QueryCache
	// Cost is the metered cost model; zero value uses DefaultCostModel.
	Cost CostModel
	// Meter receives cost and query accounting; nil creates a fresh meter.
	Meter *Meter
	// ExtraMeasures lists measures that are not part of the mined measure set
	// M but will be queried against this engine (e.g. the secondary measures
	// of registered correlation evaluators, or a custom evaluator's declared
	// Requires set). They participate in the needed-aggregate derivation for
	// the default substrate: MIN/MAX accumulators are materialized only for
	// measure columns some measure in Measures ∪ ExtraMeasures ∪
	// {ImpactMeasure} actually aggregates with AggMin/AggMax.
	ExtraMeasures []model.Measure
	// ScanParallelism is how many goroutines one scan of the default substrate
	// may use (0 or 1 = sequential). Results are bit-identical for any value;
	// see WithScanParallelism. Ignored when Substrate is set explicitly.
	ScanParallelism int
	// Observer, when non-nil, receives physical execution metrics
	// ("engine.physical.*": scans actually performed and rows actually
	// visited, counted via atomics on every scan path). Physical counts
	// reflect real work — unlike the canonical counters in miner.Stats they
	// may vary with worker count and budget timing — and never influence
	// query results or metering.
	Observer *obs.Observer
	// Substrate is the physical scan layer; nil uses the in-process
	// ColumnarSubstrate over the table.
	Substrate Substrate
	// Faults, when non-nil, injects deterministic failures and latency into
	// every scan path. A query's fate is a pure function of its canonical
	// fingerprint: it fails identically on metered and quiet paths,
	// regardless of cache state, worker count, or timing. In particular a
	// failing query fails even when its unit happens to be cached (e.g. via
	// an augmented prefetch under a different fingerprint) — the decision is
	// attached to the logical query so that physical execution and the
	// miner's canonical commit-order replay can never disagree.
	Faults *faults.Injector
}

// New creates an engine over tab.
func New(tab *dataset.Table, cfg Config) (*Engine, error) {
	if cfg.Measures == nil {
		cfg.Measures = tab.DefaultMeasures()
	}
	if cfg.ImpactMeasure == (model.Measure{}) {
		cfg.ImpactMeasure = model.Count("*")
	}
	if !cfg.ImpactMeasure.Agg.Additive() {
		return nil, fmt.Errorf("engine: impact measure %s is not additive", cfg.ImpactMeasure)
	}
	if cfg.QueryCache == nil {
		cfg.QueryCache = cache.NewQueryCache(true)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Meter == nil {
		cfg.Meter = &Meter{}
	}
	if cfg.Substrate == nil {
		// Derive the needed-aggregate set: MIN/MAX arrays are materialized
		// only for columns some declared measure aggregates that way. The set
		// is non-nil (possibly empty) so undeclared MIN/MAX queries surface as
		// "unit lacks column" rather than silently paying for every column.
		need := make(map[string]bool)
		for _, ms := range [][]model.Measure{cfg.Measures, cfg.ExtraMeasures, {cfg.ImpactMeasure}} {
			for _, m := range ms {
				if m.Agg == model.AggMin || m.Agg == model.AggMax {
					need[m.Column] = true
				}
			}
		}
		cfg.Substrate = NewColumnarSubstrate(tab,
			WithMinMaxColumns(need),
			WithScanParallelism(cfg.ScanParallelism),
			WithScanObserver(cfg.Observer))
	}
	e := &Engine{
		tab:      tab,
		measures: cfg.Measures,
		impact:   cfg.ImpactMeasure,
		qc:       cfg.QueryCache,
		cost:     cfg.Cost,
		meter:    cfg.Meter,
		obs:      cfg.Observer,
		sub:      cfg.Substrate,
		inj:      cfg.Faults,
	}
	for _, m := range cfg.Measures {
		if err := e.checkMeasure(m); err != nil {
			return nil, err
		}
	}
	for _, m := range cfg.ExtraMeasures {
		if err := e.checkMeasure(m); err != nil {
			return nil, err
		}
	}
	if err := e.checkMeasure(cfg.ImpactMeasure); err != nil {
		return nil, err
	}
	e.totalImp = e.totalImpactValue()
	if e.totalImp <= 0 {
		return nil, fmt.Errorf("engine: impact measure %s totals %v over the dataset", cfg.ImpactMeasure, e.totalImp)
	}
	return e, nil
}

func (e *Engine) checkMeasure(m model.Measure) error {
	if m.Agg == model.AggCount {
		return nil
	}
	if e.tab.MeasureColumn(m.Column) == nil {
		return fmt.Errorf("engine: measure %s references unknown column", m)
	}
	return nil
}

// recordScan counts one physical scan on the observer (a no-op when no
// observer is attached). Counted on every path that actually visits rows —
// metered and quiet alike — so "engine.physical.*" reports the machine's
// real work, complementing the canonical (worker-count-invariant) accounting
// in miner.Stats.
func (e *Engine) recordScan(rows int, augmented bool) {
	e.obs.Count("engine.physical.scans", 1)
	e.obs.Count("engine.physical.rows", int64(rows))
	if augmented {
		e.obs.Count("engine.physical.augmented_scans", 1)
	}
}

// Observer returns the engine's attached observer (possibly nil).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Table returns the table the engine queries.
func (e *Engine) Table() *dataset.Table { return e.tab }

// Measures returns the measure set M.
func (e *Engine) Measures() []model.Measure { return e.measures }

// ImpactMeasure returns the configured impact measure.
func (e *Engine) ImpactMeasure() model.Measure { return e.impact }

// Meter returns the engine's cost meter.
func (e *Engine) Meter() *Meter { return e.meter }

// QueryCache returns the engine's query cache.
func (e *Engine) QueryCache() *cache.QueryCache { return e.qc }

// Faults returns the engine's fault injector (possibly nil). The miner uses
// it to recompute resolutions during canonical commit-order replay.
func (e *Engine) Faults() *faults.Injector { return e.inj }

// totalImpactValue computes m_Impact({*}) directly (not metered: it is a
// one-time setup computation, equivalent to dataset metadata).
func (e *Engine) totalImpactValue() float64 {
	if e.impact.Agg == model.AggCount {
		return float64(e.tab.Rows())
	}
	col := e.tab.MeasureColumn(e.impact.Column)
	total := 0.0
	for i := 0; i < e.tab.Rows(); i++ {
		total += col.At(i)
	}
	return total
}

// TotalImpact returns m_Impact({*}), the denominator of Equation 2.
func (e *Engine) TotalImpact() float64 { return e.totalImp }

// BasicQuery answers the paper's BasicQuery(ds): the aggregate of
// ds.Measure grouped by ds.Breakdown under ds.Subspace (Table 2, row 1).
// The result is served from the query cache when possible; a miss scans the
// table once, producing (and caching) the full all-measures unit. Concurrent
// misses on the same unit coalesce: one scan executes and is charged, the
// other callers are accounted as cache-served.
func (e *Engine) BasicQuery(ds model.DataScope) (*Series, error) {
	if err := e.tab.Validate(ds); err != nil {
		return nil, err
	}
	unit, err := e.Unit(ds.Subspace, ds.Breakdown)
	if err != nil {
		return nil, err
	}
	return extract(unit, ds)
}

// Unit returns the full query-cache unit for (subspace, breakdown),
// executing a scan on a cache miss. Callers that need several measures of
// the same scope use this to avoid repeated extraction lookups. Concurrent
// misses single-flight into one charged scan; followers count as served.
func (e *Engine) Unit(subspace model.Subspace, breakdown string) (*cache.Unit, error) {
	if e.tab.Dimension(breakdown) == nil {
		return nil, fmt.Errorf("engine: unknown breakdown dimension %q", breakdown)
	}
	// Resolve the query's fate before consulting the cache: a failing
	// fingerprint fails regardless of cache state (see Config.Faults), so
	// metered and quiet paths — and the miner's canonical replay — always
	// agree. Injected retry/latency cost is charged only when the scan
	// actually executes below.
	var faultCost float64
	if e.inj.Enabled() {
		fp := UnitFingerprint(subspace.Key(), breakdown)
		fres := e.inj.Resolve(fp, e.ScanCost(subspace))
		if !fres.OK {
			e.meter.AddCost(fres.FaultCost)
			return nil, fres.Err(fp)
		}
		faultCost = fres.FaultCost
	}
	unit, ok := e.qc.Get(subspace.Key(), breakdown)
	if ok {
		e.meter.served.Add(1)
		return unit, nil
	}
	key := cache.UnitKey{Subspace: subspace.Key(), Breakdown: breakdown}
	res, leader := e.meteredUnits.Do(key, func() unitRes {
		// Double-check under the flight: a previous leader may have cached
		// the unit between this caller's miss and its flight entry.
		if u, ok := e.qc.Peek(key.Subspace, key.Breakdown); ok {
			return unitRes{u: u}
		}
		u, scanned, err := e.execScanUnit(subspace, breakdown)
		if err != nil {
			return unitRes{err: err}
		}
		e.recordScan(scanned, false)
		e.meter.executed.Add(1)
		e.meter.AddCost(e.cost.PerQuery + e.cost.PerRow*float64(scanned) + faultCost)
		e.qc.Put(u)
		return unitRes{u: u, scanned: true}
	})
	if res.err != nil {
		return nil, res.err
	}
	if !leader || !res.scanned {
		e.meter.served.Add(1)
	}
	return res.u, nil
}

// execScanUnit runs the substrate's unit scan, retrying real substrate
// errors up to the retry policy's attempt budget. Injected faults never
// reach this level — they are resolved before the cache lookup.
func (e *Engine) execScanUnit(s model.Subspace, breakdown string) (*cache.Unit, int, error) {
	var u *cache.Unit
	var rows int
	var err error
	for i := 0; i < e.inj.MaxAttempts(); i++ {
		u, rows, err = e.sub.ScanUnit(s, breakdown)
		if err == nil {
			return u, rows, nil
		}
	}
	return nil, rows, err
}

// execScanAugmented is execScanUnit for augmented scans.
func (e *Engine) execScanAugmented(base model.Subspace, breakdown, ext string) (map[string]*cache.Unit, int, error) {
	var units map[string]*cache.Unit
	var rows int
	var err error
	for i := 0; i < e.inj.MaxAttempts(); i++ {
		units, rows, err = e.sub.ScanAugmented(base, breakdown, ext)
		if err == nil {
			return units, rows, nil
		}
	}
	return nil, rows, err
}

// CheckAugmented validates an AugmentedQuery(ds, d) request without running
// it: the scope must be valid, d must be a known dimension, and d must not
// equal the breakdown.
func (e *Engine) CheckAugmented(ds model.DataScope, d string) error {
	if err := e.tab.Validate(ds); err != nil {
		return err
	}
	if e.tab.Dimension(d) == nil {
		return fmt.Errorf("engine: unknown augmentation dimension %q", d)
	}
	if d == ds.Breakdown {
		return fmt.Errorf("engine: augmentation dimension %q equals the breakdown", d)
	}
	return nil
}

// AugmentedQuery answers the paper's AugmentedQuery(ds, d) (Table 2, row 2):
// one scan filtered by ds.Subspace \ d, grouped by (ds.Breakdown, d), across
// all measures. It returns the cache units for every sibling subspace in
// SG(ds.Subspace, d) that has at least one record, keyed by the sibling's
// value on d; each unit is also stored in the query cache, pre-fetching the
// measure-extending and subspace-extending HDSs generated from ds.
// Concurrent identical calls coalesce into one charged scan; followers count
// as served.
func (e *Engine) AugmentedQuery(ds model.DataScope, d string) (map[string]*cache.Unit, error) {
	if err := e.CheckAugmented(ds, d); err != nil {
		return nil, err
	}
	base := ds.Subspace.Without(d)
	var faultCost float64
	if e.inj.Enabled() {
		fp := AugmentedFingerprint(base.Key(), ds.Breakdown, d)
		fres := e.inj.Resolve(fp, e.ScanCost(base))
		if !fres.OK {
			e.meter.AddCost(fres.FaultCost)
			return nil, fres.Err(fp)
		}
		faultCost = fres.FaultCost
	}
	key := augKey{base: base.Key(), breakdown: ds.Breakdown, ext: d}
	res, leader := e.meteredAug.Do(key, func() augRes {
		units, scanned, err := e.execScanAugmented(base, ds.Breakdown, d)
		if err != nil {
			return augRes{err: err}
		}
		e.recordScan(scanned, true)
		e.meter.executed.Add(1)
		e.meter.augmented.Add(1)
		// One scan answers |dom(d)| sibling queries; charge a single round
		// trip plus the scan, mirroring the paper's motivation for augmented
		// queries.
		e.meter.AddCost(e.cost.PerQuery + e.cost.PerRow*float64(scanned) + faultCost)
		for _, u := range units {
			e.qc.Put(u)
		}
		return augRes{units: units}
	})
	if res.err != nil {
		return nil, res.err
	}
	if !leader {
		e.meter.served.Add(1)
	}
	return res.units, nil
}

// MaterializeUnit returns the unit for (subspace, breakdown) without touching
// the meter or the cache's hit/miss counters: a cached unit is peeked, a
// missing one is scanned (single-flighted) and stored. The miner's workers
// use the Materialize* paths for all data access and account for the work
// canonically at commit time, so the numbers reported for a run are
// independent of worker count and physical interleaving.
func (e *Engine) MaterializeUnit(subspace model.Subspace, breakdown string) (*cache.Unit, error) {
	if e.tab.Dimension(breakdown) == nil {
		return nil, fmt.Errorf("engine: unknown breakdown dimension %q", breakdown)
	}
	// Same purity rule as Unit: the fingerprint's fate is decided before any
	// cache interaction, so the outcome cannot depend on which worker got
	// here first or what happens to be cached.
	if e.inj.Enabled() {
		fp := UnitFingerprint(subspace.Key(), breakdown)
		if fres := e.inj.Resolve(fp, e.ScanCost(subspace)); !fres.OK {
			return nil, fres.Err(fp)
		}
	}
	key := cache.UnitKey{Subspace: subspace.Key(), Breakdown: breakdown}
	if u, ok := e.qc.Peek(key.Subspace, key.Breakdown); ok {
		return u, nil
	}
	res, _ := e.quietUnits.Do(key, func() quietUnitRes {
		if u, ok := e.qc.Peek(key.Subspace, key.Breakdown); ok {
			return quietUnitRes{u: u} // raced with another leader's Put
		}
		u, scanned, err := e.execScanUnit(subspace, breakdown)
		if err != nil {
			return quietUnitRes{err: err}
		}
		e.recordScan(scanned, false)
		e.qc.Put(u)
		return quietUnitRes{u: u}
	})
	return res.u, res.err
}

// MaterializeBasic is the quiet (unmetered, uncounted) form of BasicQuery.
func (e *Engine) MaterializeBasic(ds model.DataScope) (*Series, error) {
	if err := e.tab.Validate(ds); err != nil {
		return nil, err
	}
	u, err := e.MaterializeUnit(ds.Subspace, ds.Breakdown)
	if err != nil {
		return nil, err
	}
	return extract(u, ds)
}

// MaterializeAugmented is the quiet (unmetered, uncounted) form of
// AugmentedQuery. The returned map's key set identifies exactly the
// non-empty siblings, which callers use to distinguish "empty sibling" from
// "not yet fetched".
func (e *Engine) MaterializeAugmented(ds model.DataScope, d string) (map[string]*cache.Unit, error) {
	if err := e.CheckAugmented(ds, d); err != nil {
		return nil, err
	}
	base := ds.Subspace.Without(d)
	if e.inj.Enabled() {
		fp := AugmentedFingerprint(base.Key(), ds.Breakdown, d)
		if fres := e.inj.Resolve(fp, e.ScanCost(base)); !fres.OK {
			return nil, fres.Err(fp)
		}
	}
	key := augKey{base: base.Key(), breakdown: ds.Breakdown, ext: d}
	res, _ := e.quietAug.Do(key, func() augRes {
		units, scanned, err := e.execScanAugmented(base, ds.Breakdown, d)
		if err != nil {
			return augRes{err: err}
		}
		e.recordScan(scanned, true)
		for _, u := range units {
			e.qc.Put(u)
		}
		return augRes{units: units}
	})
	return res.units, res.err
}

// ScanCost returns the metered cost a unit scan under subspace s would be
// charged, without scanning: the per-query overhead plus the per-row cost of
// the rows the scan plan would visit. When the substrate is a RowPlanner
// (ColumnarSubstrate is), the exact planned row count is used, so the
// analytic cost agrees bit for bit with what the scan will meter — including
// when posting-list intersection shrinks the row set below any single
// filter's posting list. Other substrates fall back to the legacy estimate:
// the full table when s is unfiltered, otherwise the most selective filter's
// posting list. The cost of a scan depends only on the subspace, not the
// breakdown, and an augmented scan of base subspace b costs exactly
// ScanCost(b).
func (e *Engine) ScanCost(s model.Subspace) float64 {
	var scanned int
	if rp, ok := e.sub.(RowPlanner); ok {
		scanned = rp.PlannedRows(s)
	} else {
		scanned = e.tab.Rows()
		if len(s) > 0 {
			best := e.tab.Rows() + 1
			for _, f := range resolveFilters(e.tab, s) {
				if l := len(f.col.Postings(int(f.code))); l < best {
					best = l
				}
			}
			scanned = best
		}
	}
	return e.cost.PerQuery + e.cost.PerRow*float64(scanned)
}

// EvaluationCost returns the metered cost of one data-pattern evaluation.
func (e *Engine) EvaluationCost() float64 { return e.cost.PerEvaluation }

// Impact returns Impact_ds for a subspace (Equation 2): the impact measure's
// value on the subspace divided by its value on the whole dataset. The
// numerator is served by any unit of the subspace if cached; otherwise a
// count-style scan is metered.
func (e *Engine) Impact(s model.Subspace) (float64, error) {
	if len(s) == 0 {
		return 1, nil
	}
	// The fallback scan's fate is resolved before the cache probes: if its
	// fingerprint fails, the impact lookup fails even when a probe unit
	// happens to be cached. Cache-dependent outcomes would diverge between
	// this path and the miner's replay (whose simulated cache can lag or
	// lead the physical one), breaking worker-count invariance.
	if e.inj.Enabled() {
		fp := UnitFingerprint(s.Key(), e.impactFallbackDim(s))
		fres := e.inj.Resolve(fp, e.ScanCost(s))
		if !fres.OK {
			e.meter.AddCost(fres.FaultCost)
			return 0, fres.Err(fp)
		}
	}
	// Any breakdown unit of this subspace can serve the impact value; prefer
	// a cached one before paying for a scan.
	for _, dim := range e.tab.DimensionNames() {
		if s.Has(dim) {
			continue
		}
		if u, ok := e.qc.Peek(s.Key(), dim); ok {
			return e.unitImpact(u) / e.totalImp, nil
		}
	}
	u, err := e.Unit(s, e.impactFallbackDim(s))
	if err != nil {
		return 0, err
	}
	return e.unitImpact(u) / e.totalImp, nil
}

// impactFallbackDim picks the breakdown for an impact scan: the first
// unfiltered dimension. If every dimension is filtered, grouping by a
// filtered one is still correct: the scan keeps the filter, so the unit
// holds exactly the one matching group.
func (e *Engine) impactFallbackDim(s model.Subspace) string {
	for _, dim := range e.tab.DimensionNames() {
		if !s.Has(dim) {
			return dim
		}
	}
	return e.tab.DimensionNames()[0]
}

// ImpactProbe describes how an impact value was (or would canonically be)
// obtained, so the miner can replay the lookup against its simulated cache:
// if any probe unit is cached the value is free, otherwise the fallback unit
// is scanned at Cost and enters the cache.
type ImpactProbe struct {
	// Subspace is the canonical key of the probed subspace.
	Subspace string
	// Probe lists the unfiltered breakdown dimensions, in table dimension
	// order; a cached unit on any of them serves the impact value.
	Probe []string
	// Fallback is the unit scanned when no probe key is cached.
	Fallback cache.UnitKey
	// Cost is the analytic metered cost of the fallback scan (ScanCost).
	Cost float64
	// Bytes is the fallback unit's ApproxBytes when this call observed the
	// unit, else 0. Best-effort: cache byte sizes are reporting-only.
	Bytes int64
}

// ImpactUnmetered is the quiet form of Impact: it computes the impact value
// without touching the meter or cache counters and returns an ImpactProbe
// recording how the lookup would be charged. The probe is nil for the empty
// subspace (impact 1 is free dataset metadata).
func (e *Engine) ImpactUnmetered(s model.Subspace) (float64, *ImpactProbe, error) {
	if len(s) == 0 {
		return 1, nil, nil
	}
	probe := make([]string, 0, len(e.tab.DimensionNames()))
	for _, dim := range e.tab.DimensionNames() {
		if !s.Has(dim) {
			probe = append(probe, dim)
		}
	}
	p := &ImpactProbe{
		Subspace: s.Key(),
		Probe:    probe,
		Fallback: cache.UnitKey{Subspace: s.Key(), Breakdown: e.impactFallbackDim(s)},
		Cost:     e.ScanCost(s),
	}
	// Purity rule (see Impact): resolve the fallback fingerprint before any
	// cache peek. The probe is returned alongside the error so the miner can
	// record the lookup and recompute the identical resolution at replay.
	if e.inj.Enabled() {
		fp := UnitFingerprint(p.Fallback.Subspace, p.Fallback.Breakdown)
		if fres := e.inj.Resolve(fp, p.Cost); !fres.OK {
			return 0, p, fres.Err(fp)
		}
	}
	var unit *cache.Unit
	// With an unbounded cache, p.Bytes is reporting-only, so a probe unit
	// found by a (timing-dependent) peek may serve the value and leave Bytes
	// zero. Under a byte-bounded cache the recorded size participates in the
	// canonical eviction simulation, so it must be deterministic: always
	// materialize the fallback unit (pure data, worker-count-invariant) and
	// take its size.
	if e.qc.MaxBytes() == 0 {
		for _, dim := range probe {
			if u, ok := e.qc.Peek(s.Key(), dim); ok {
				unit = u
				break
			}
		}
	}
	if unit == nil {
		u, err := e.MaterializeUnit(s, p.Fallback.Breakdown)
		if err != nil {
			return 0, p, err
		}
		unit = u
	}
	if unit.Key == p.Fallback {
		p.Bytes = unit.ApproxBytes()
	}
	return e.unitImpact(unit) / e.totalImp, p, nil
}

// unitImpact sums the impact measure over a unit's groups; valid because the
// impact measure is additive.
func (e *Engine) unitImpact(u *cache.Unit) float64 {
	if e.impact.Agg == model.AggCount {
		return statsSum(u.Counts)
	}
	return statsSum(u.Sums[e.impact.Column])
}

func statsSum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Extract materializes one measure's series from an already-fetched unit
// without touching the cache counters; callers that evaluate several
// measures of the same (subspace, breakdown) family use it after one Unit
// call.
func Extract(u *cache.Unit, ds model.DataScope) (*Series, error) {
	return extract(u, ds)
}

// extract materializes one measure's series from a unit. Groups with no
// records are already absent from the unit.
func extract(u *cache.Unit, ds model.DataScope) (*Series, error) {
	n := len(u.GroupKeys)
	vals := make([]float64, n)
	switch ds.Measure.Agg {
	case model.AggCount:
		copy(vals, u.Counts)
	case model.AggSum:
		src, ok := u.Sums[ds.Measure.Column]
		if !ok {
			return nil, fmt.Errorf("engine: unit lacks column %q", ds.Measure.Column)
		}
		copy(vals, src)
	case model.AggAvg:
		src, ok := u.Sums[ds.Measure.Column]
		if !ok {
			return nil, fmt.Errorf("engine: unit lacks column %q", ds.Measure.Column)
		}
		for i := range vals {
			vals[i] = src[i] / u.Counts[i]
		}
	case model.AggMin:
		src, ok := u.Mins[ds.Measure.Column]
		if !ok {
			return nil, fmt.Errorf("engine: unit lacks column %q", ds.Measure.Column)
		}
		copy(vals, src)
	case model.AggMax:
		src, ok := u.Maxs[ds.Measure.Column]
		if !ok {
			return nil, fmt.Errorf("engine: unit lacks column %q", ds.Measure.Column)
		}
		copy(vals, src)
	default:
		return nil, fmt.Errorf("engine: unsupported aggregate %v", ds.Measure.Agg)
	}
	return &Series{Scope: ds, Keys: u.GroupKeys, Values: vals}, nil
}

// ChargeEvaluation charges the metered cost of one data-pattern evaluation.
func (e *Engine) ChargeEvaluation() {
	e.meter.AddCost(e.cost.PerEvaluation)
}

// Package metainsight is a from-scratch Go implementation of MetaInsight
// (Ma, Ding, Han, Zhang — SIGMOD 2021): automatic discovery of structured
// knowledge from multi-dimensional data for exploratory data analysis.
//
// A MetaInsight organizes the basic data patterns of a homogeneous data
// pattern (HDP) into commonness(es) — general knowledge like "most cities
// had their lowest sales in April" — and exceptions — "except San Diego,
// whose low month was July" — concretizing the induction and validation
// steps of an EDA iteration. The library contains the full system described
// in the paper: the columnar query substrate with basic and augmented
// queries, eleven basic-data-pattern evaluators, the HDP formulation with
// three extension strategies, the conciseness/impact/actionability scoring
// function, the pattern-guided progressive miner with priority queues and
// two caches, and the redundancy-aware top-k ranking algorithm.
//
// Quick start — a Session loads and indexes once and serves many analyses:
//
//	tab, err := metainsight.OpenCSV("sales.csv")
//	s, err := metainsight.NewSession(tab)
//	an, err := s.Analyze(ctx, metainsight.Request{TopK: 10})
//	for _, in := range an.Insights {
//		fmt.Println(in.Description())
//	}
//
// Per-call knobs (budgets, measures, τ) travel in the Request;
// construction-time settings are grouped into typed configs:
//
//	s, err := metainsight.NewSession(tab,
//		metainsight.WithExec(metainsight.ExecConfig{Workers: 8, ScanParallelism: 4}),
//	)
//	an, err := s.Analyze(ctx, metainsight.Request{
//		TopK:   10,
//		Budget: metainsight.Budget{Time: 5 * time.Second},
//		Tau:    0.5,
//	})
//
// The pre-Session surface (Analyze, NewAnalyzer and the flat With*
// options) remains supported as deprecated shims over the Session API; see
// README.md for the migration table.
package metainsight

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"metainsight/internal/checkpoint"
	"metainsight/internal/core"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
	"metainsight/internal/ranker"
	"metainsight/internal/render"
	"metainsight/internal/stats"
)

// Re-exported vocabulary. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Dataset is an immutable columnar multi-dimensional table.
	Dataset = dataset.Table
	// Field describes one column (name + kind).
	Field = model.Field
	// FieldKind classifies a column as categorical, temporal or measure.
	FieldKind = model.FieldKind
	// Measure pairs an aggregate (SUM/COUNT/AVG/MIN/MAX) with a column.
	Measure = model.Measure
	// Subspace is a set of dimension filters.
	Subspace = model.Subspace
	// Filter is one dimension filter.
	Filter = model.Filter
	// DataScope is the paper's ⟨subspace, breakdown, measure⟩ 3-tuple.
	DataScope = model.DataScope
	// MetaInsight is a scored, categorized homogeneous data pattern.
	MetaInsight = core.MetaInsight
	// MiningResult holds all mined MetaInsight candidates plus statistics.
	MiningResult = miner.Result
	// MiningStats aggregates the run counters.
	MiningStats = miner.Stats
	// PatternType enumerates the 11 basic data pattern types.
	PatternType = pattern.Type
	// Highlight encodes a pattern's essential characteristics; equality of
	// highlights defines the Sim similarity of Equation 8.
	Highlight = pattern.Highlight
	// PatternEvaluation is the outcome of one pattern-type evaluation.
	PatternEvaluation = pattern.Evaluation
	// CustomPattern is a user-supplied domain-specific pattern type — the
	// extensibility hook of Section 3.1. Custom types participate in HDPs,
	// similarity, commonness/exception categorization and scoring exactly
	// like the built-ins.
	CustomPattern = pattern.CustomEvaluator
	// Observer collects metrics, phase timings and (optionally) a structured
	// run trace from an analysis. Attach one with WithObserver; read it back
	// with Analyzer.Snapshot or Observer.Trace. Observers are provably inert:
	// attaching one never changes mining results or statistics.
	Observer = obs.Observer
	// ObserverOptions configures NewObserver.
	ObserverOptions = obs.Options
	// MetricsSnapshot is a point-in-time copy of an observer's counters,
	// gauges, histograms and phase timers, with stable JSON encoding.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one structured run-trace event (pop, query execution,
	// cache hit/miss, pattern evaluation, prune, dedup, store, budget stop).
	TraceEvent = obs.Event
	// Substrate is the physical scan layer behind the query engine. The
	// default is the in-process columnar scan; swap it with WithSubstrate to
	// back analyses by a different executor.
	Substrate = engine.Substrate
	// FaultPolicy configures deterministic fault injection: seeded, fingerprint-
	// keyed transient/permanent failures and simulated latency, for resilience
	// testing without giving up reproducibility. Attach with WithFaultPolicy.
	FaultPolicy = faults.Policy
	// RetryPolicy configures the retry/backoff/deadline/circuit-breaker
	// behavior of the fault-tolerant query substrate. Attach with
	// WithRetryPolicy.
	RetryPolicy = faults.RetryPolicy
	// LoadStats counts what CSV ingestion kept and dropped
	// (Dataset.LoadStats).
	LoadStats = dataset.LoadStats
	// RowPolicy selects how ingestion treats a defective row (RowError or
	// RowSkip).
	RowPolicy = dataset.RowPolicy
)

// Row-policy constants for WithRaggedRows / WithBadMeasures.
const (
	// RowError rejects the whole load on the first defective row (default).
	RowError = dataset.RowError
	// RowSkip drops defective rows and counts them in Dataset.LoadStats.
	RowSkip = dataset.RowSkip
)

// ErrDegraded marks a best-effort mining result whose query failure rate
// exceeded the degradation threshold; test with errors.Is on
// MiningResult.Err or the error returned by Analyze.
var ErrDegraded = miner.ErrDegraded

// ErrQueryFailed is the sentinel wrapped by every permanently failed query
// (injected faults, exhausted retries, deadline overruns).
var ErrQueryFailed = faults.ErrQueryFailed

// Checkpoint/resume sentinels; test with errors.Is on MiningResult.Err or
// the error returned by Analyze.
var (
	// ErrNoCheckpoint: ResumeFromCheckpoint found no usable checkpoint in
	// the directory.
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrCheckpointCorrupt: a checkpoint file failed validation (bad magic,
	// CRC mismatch on a complete frame, non-contiguous journal, trailing
	// garbage). A torn final journal record is NOT corruption — it is the
	// expected shape after a crash and is silently discarded.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointVersion: the checkpoint was written by an incompatible
	// format version.
	ErrCheckpointVersion = checkpoint.ErrVersion
	// ErrCheckpointExists: WithCheckpoint refuses to overwrite a directory
	// that already holds a checkpoint; resume it or remove it explicitly.
	ErrCheckpointExists = checkpoint.ErrExists
	// ErrCheckpointMismatch: the checkpoint was written under a different
	// mining configuration (dataset, measures, scoring, caches, faults or
	// budget kind); resuming it would not reproduce the original run.
	ErrCheckpointMismatch = miner.ErrCheckpointMismatch
	// ErrReplayDiverged: re-executing the journal tail did not reproduce the
	// journaled commits — the inputs changed since the checkpoint was taken.
	ErrReplayDiverged = miner.ErrReplayDiverged
)

// ParseFaultSpec parses a "key=value,key=value" fault specification (the
// CLI's -faults flag) into a fault policy and retry policy. Keys: seed,
// transient, permanent, latency-rate, latency, attempts, backoff,
// backoff-factor, max-backoff, jitter, deadline, breaker. An empty spec
// returns zero policies.
func ParseFaultSpec(spec string) (FaultPolicy, RetryPolicy, error) {
	return faults.ParseSpec(spec)
}

// NewObserver creates an observability collector to attach via WithObserver.
// A zero ObserverOptions records metrics and phase timers only; set
// TraceCapacity to also keep a ring-buffered structured run trace.
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// Column-kind constants, re-exported for schema construction.
const (
	Categorical = model.KindCategorical
	Temporal    = model.KindTemporal
	MeasureKind = model.KindMeasure
)

// Aggregate constructors, re-exported for measure sets.
var (
	// Sum constructs SUM(column).
	Sum = model.Sum
	// Count constructs COUNT(column); Count("*") is COUNT(*).
	Count = model.Count
	// Avg constructs AVG(column).
	Avg = model.Avg
	// Min constructs MIN(column).
	Min = model.Min
	// Max constructs MAX(column).
	Max = model.Max
)

// OpenCSV loads a CSV file with a header row, inferring column kinds
// (numeric → measure; months/quarters/years/dates → temporal; otherwise
// categorical).
func OpenCSV(path string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.LoadCSVFile(path, o)
}

// ReadCSV loads CSV data from a reader; see OpenCSV.
func ReadCSV(r io.Reader, name string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{Name: name}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.LoadCSV(r, o)
}

// FromRecords builds a dataset from an in-memory header and string records,
// applying the same kind inference as OpenCSV.
func FromRecords(name string, header []string, records [][]string, opts ...LoadOption) (*Dataset, error) {
	o := dataset.LoadOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	return dataset.FromRecords(name, header, records, o)
}

// DeriveTemporal returns a copy of the dataset with temporal hierarchy
// columns ("<col> Year", "<col> Quarter", "<col> Month" and, for
// day-precision dates, "<col> Weekday") derived from a date column. The
// derived granularities are what the breakdown extension strategy (Section
// 3.2) varies over.
func DeriveTemporal(d *Dataset, dateColumn string) (*Dataset, error) {
	return dataset.DeriveTemporal(d, dateColumn)
}

// NewDatasetBuilder constructs a typed dataset row by row, for callers that
// already know their schema.
func NewDatasetBuilder(name string, fields []Field) *dataset.Builder {
	return dataset.NewBuilder(name, fields)
}

// LoadOption customizes CSV ingestion.
type LoadOption func(*dataset.LoadOptions)

// WithColumnKind forces a column to a specific kind, bypassing inference.
func WithColumnKind(column string, kind FieldKind) LoadOption {
	return func(o *dataset.LoadOptions) {
		if o.KindOverrides == nil {
			o.KindOverrides = map[string]FieldKind{}
		}
		o.KindOverrides[column] = kind
	}
}

// WithMaxDimensionCardinality drops categorical columns with more distinct
// values (e.g. free-text ID columns) from the analysis.
func WithMaxDimensionCardinality(n int) LoadOption {
	return func(o *dataset.LoadOptions) { o.MaxDimensionCardinality = n }
}

// WithRaggedRows selects the treatment of rows whose column count differs
// from the header's: RowError (default) rejects the load, RowSkip drops and
// counts them (Dataset.LoadStats).
func WithRaggedRows(p RowPolicy) LoadOption {
	return func(o *dataset.LoadOptions) { o.RaggedRows = p }
}

// WithBadMeasures selects the treatment of rows carrying a NaN, ±Inf or
// unparseable measure cell: RowError (default) rejects the load, RowSkip
// drops and counts them (Dataset.LoadStats).
func WithBadMeasures(p RowPolicy) LoadOption {
	return func(o *dataset.LoadOptions) { o.BadMeasures = p }
}

// Analyzer runs MetaInsight mining and ranking over one dataset.
type Analyzer struct {
	eng        *engine.Engine
	meter      *engine.Meter
	cfg        miner.Config
	wts        ranker.Weights
	obs        *obs.Observer
	timeBudget time.Duration // anchored at each Mine call
}

// Option customizes an Analyzer.
type Option func(*analyzerOptions)

type analyzerOptions struct {
	measures       []Measure
	impact         Measure
	minerCfg       miner.Config
	customPatterns []CustomPattern
	correlations   [][2]Measure
	timeBudget     time.Duration
	costBudget     float64
	disableQC      bool
	disablePC      bool
	weights        ranker.Weights
	observer       *obs.Observer
	substrate      Substrate
	faultPolicy    FaultPolicy
	retryPolicy    RetryPolicy
	retrySet       bool
	qcBytes        int64
	pcBytes        int64
	checkpoint     *miner.CheckpointSpec
	scanPar        int

	// Fields below are written by the Session-surface options (session.go)
	// and by the reworked checkpoint options; resolveOptions validates and
	// lowers them.
	topKSet   bool
	ckDir     string
	ckEvery   int64
	resumeDir string
	subLimit  int
}

// WithMeasures sets the measure set M (default: SUM over every measure
// column plus COUNT(*)).
func WithMeasures(ms ...Measure) Option {
	return func(o *analyzerOptions) { o.measures = ms }
}

// WithImpactMeasure sets the impact measure (must be SUM or COUNT; default
// COUNT(*), as in the paper's evaluation).
func WithImpactMeasure(m Measure) Option {
	return func(o *analyzerOptions) { o.impact = m }
}

// WithTimeBudget bounds mining by wall-clock time; mining is progressive
// and returns the best-so-far MetaInsights at the deadline.
func WithTimeBudget(d time.Duration) Option {
	return func(o *analyzerOptions) { o.timeBudget = d }
}

// WithCostBudget bounds mining by deterministic engine cost units (one unit
// approximates a millisecond of an IPC-backed query substrate). Runs with a
// cost budget are exactly reproducible.
func WithCostBudget(units float64) Option {
	return func(o *analyzerOptions) { o.costBudget = units }
}

// WithWorkers sets the evaluation worker count (default 8, as in the paper).
func WithWorkers(n int) Option {
	return func(o *analyzerOptions) { o.minerCfg.Workers = n }
}

// WithTau sets the commonness threshold τ (default 0.5). Only τ is touched:
// other score parameters set before or after this option are preserved, and
// any left at zero are lazily defaulted when mining starts.
func WithTau(tau float64) Option {
	return func(o *analyzerOptions) { o.minerCfg.Score.Tau = tau }
}

// WithObserver attaches an observability collector to the analysis: atomic
// metrics and phase timers, plus (if the observer was built with a trace
// capacity) a structured run trace recorded in deterministic commit order.
// The observer is inert — results and statistics are bit-identical with or
// without it, at any worker count. Read it back with Analyzer.Snapshot.
func WithObserver(ob *Observer) Option {
	return func(o *analyzerOptions) { o.observer = ob }
}

// WithScanParallelism sets how many goroutines one physical scan of the
// default columnar substrate may use (default 1). This is intra-query
// parallelism, orthogonal to WithWorkers' inter-query parallelism. Scan
// results — and therefore every mined insight, statistic, fault fingerprint
// and checkpoint — are bit-identical for any value: the scan pipeline splits
// rows into fixed-size morsels and merges partial aggregates in morsel-index
// order, so the floating-point grouping never depends on n. Ignored when
// WithSubstrate replaces the default substrate.
func WithScanParallelism(n int) Option {
	return func(o *analyzerOptions) { o.scanPar = n }
}

// WithMaxSubspaceFilters caps subspace depth (default 3).
func WithMaxSubspaceFilters(n int) Option {
	return func(o *analyzerOptions) { o.minerCfg.MaxSubspaceFilters = n }
}

// WithTopKPruning enables S*-bounded early termination: once k MetaInsights
// are committed, candidates whose score upper bound (Lemma 4.1's S* combined
// with the impact term of Equation 18) cannot strictly beat the k-th best
// committed score are cut before evaluation, so their sibling scans never
// run. Every MetaInsight whose score strictly exceeds the run's final k-th
// best score is still mined, so the score-ordered top k is preserved; mine
// with headroom (e.g. 2–4× the suggestion count) when ranking with diversity
// weights, which may promote lower-scoring insights. Zero (the default)
// disables termination and mines the complete candidate set.
func WithTopKPruning(k int) Option {
	return func(o *analyzerOptions) { o.minerCfg.TopK = k; o.topKSet = true }
}

// WithoutBoundPruning disables the impact-sum bound cuts (on by default):
// the miner issues every frontier query instead of skipping candidates whose
// precomputed impact upper bound cannot reach the pruning thresholds. Mined
// MetaInsights are identical either way — the bounds are sound, so a cut
// candidate would have been discarded after its scan — making this toggle an
// ablation/debugging knob for comparing query counts and costs.
func WithoutBoundPruning() Option {
	return func(o *analyzerOptions) { o.minerCfg.EnableBoundPruning = false }
}

// WithoutQueryCache disables the query cache (ablation runs).
func WithoutQueryCache() Option {
	return func(o *analyzerOptions) { o.disableQC = true }
}

// WithoutPatternCache disables the pattern cache (ablation runs).
func WithoutPatternCache() Option {
	return func(o *analyzerOptions) { o.disablePC = true }
}

// WithFIFOQueues replaces the impact-ordered priority queues with FIFO
// queues (ablation runs).
func WithFIFOQueues() Option {
	return func(o *analyzerOptions) { o.minerCfg.UsePriorityQueues = false }
}

// WithProgress registers a callback invoked whenever the miner stores a new
// MetaInsight, enabling progressive display during a budgeted run. The
// callback is invoked serially from the miner's dispatcher goroutine, in
// deterministic discovery order; it should be fast (it runs on the mining
// path, pausing unit commits while it executes).
func WithProgress(fn func(*MetaInsight)) Option {
	return func(o *analyzerOptions) { o.minerCfg.OnMetaInsight = fn }
}

// WithCorrelationPatterns registers, per (primary, secondary) measure pair,
// a scope-aware pattern type "Correlation(primary, secondary)" that holds
// when the two measures' series over a scope's breakdown are significantly
// correlated (Pearson, p < 0.05, |r| ≥ 0.5; highlight: "positive" or
// "negative"). Correlation scopes carry two measures — the multi-measure
// ("scatter plot") analysis class the paper's Section 6 identifies beyond
// single-measure data scopes and defers to future work. The pattern fires on
// the primary measure's scopes only, so each pair yields one HDP family;
// commonness and exceptions then read e.g. "for most Cities, Sales and
// Profit are positively correlated, except …".
func WithCorrelationPatterns(pairs ...[2]Measure) Option {
	return func(o *analyzerOptions) {
		o.correlations = append(o.correlations, pairs...)
	}
}

// WithCustomPatternTypes registers additional domain-specific pattern types
// (Section 3.1's extensibility). Each custom pattern is assigned a Type and
// evaluated on every data scope alongside the built-in eleven.
func WithCustomPatternTypes(evals ...CustomPattern) Option {
	return func(o *analyzerOptions) {
		o.customPatterns = append(o.customPatterns, evals...)
	}
}

// WithRankingWeights overrides the overlap-ratio weights of the ranking
// stage.
func WithRankingWeights(w ranker.Weights) Option {
	return func(o *analyzerOptions) { o.weights = w }
}

// WithSubstrate replaces the physical scan layer behind the query engine
// (default: the in-process columnar substrate over the dataset). Real errors
// returned by a custom substrate are retried per the retry policy and, if
// permanent, skipped-but-accounted (Stats.FailedUnits).
func WithSubstrate(s Substrate) Option {
	return func(o *analyzerOptions) { o.substrate = s }
}

// WithFaultPolicy enables deterministic fault injection on every scan path:
// seeded transient/permanent failures and simulated latency, keyed by each
// query's canonical fingerprint (never wall-clock or shared RNG), so a faulty
// run is exactly as reproducible — including across worker counts — as a
// clean one. A zero policy injects nothing.
func WithFaultPolicy(p FaultPolicy) Option {
	return func(o *analyzerOptions) { o.faultPolicy = p }
}

// WithRetryPolicy configures retries with capped exponential backoff and
// deterministic jitter, per-query cost deadlines, and the consecutive-failure
// circuit breaker. Zero-value fields take the defaults
// (RetryPolicy.WithDefaults). Only meaningful together with WithFaultPolicy
// or a failure-capable WithSubstrate.
func WithRetryPolicy(r RetryPolicy) Option {
	return func(o *analyzerOptions) { o.retryPolicy = r; o.retrySet = true }
}

// WithCacheBytes bounds the query and pattern caches to the given byte
// budgets (0 = unbounded). Bounded caches evict oldest-first; the miner's
// canonical commit-order simulation makes the reported Stats.Evictions — and
// everything downstream — deterministic at any worker count.
func WithCacheBytes(queryBytes, patternBytes int64) Option {
	return func(o *analyzerOptions) { o.qcBytes = queryBytes; o.pcBytes = patternBytes }
}

// WithDegradedThreshold sets the query failure rate above which a run is
// flagged degraded (MiningResult.Err wraps ErrDegraded; default 0.1). Set
// negative to flag any failure, or >= 1 to never flag.
func WithDegradedThreshold(f float64) Option {
	return func(o *analyzerOptions) { o.minerCfg.DegradedThreshold = f }
}

// WithCheckpoint makes mining crash-safe: the miner journals every committed
// unit to dir (an append-only, CRC-framed log of the canonical commit
// stream) and writes an atomic snapshot of its full state every `every`
// commits (default 256 when every <= 0) plus once at loop exit. After a
// crash or cancellation, ResumeFromCheckpoint(dir) continues the run where
// it left off. The directory must not already hold a checkpoint
// (ErrCheckpointExists otherwise). Checkpointing requires the deterministic
// budget kinds — cost budget or unbounded — to guarantee a resumed run is
// bit-identical to an uninterrupted one; a time budget re-anchors at resume.
func WithCheckpoint(dir string, every int64) Option {
	return func(o *analyzerOptions) { o.ckDir = dir; o.ckEvery = every }
}

// ResumeFromCheckpoint resumes a crashed or cancelled run from the
// checkpoint directory: the latest valid snapshot is restored, the journal
// tail (tolerating a torn final record) is replayed by deterministic
// re-execution — which also re-primes the caches — and mining re-enters its
// loop on the pending work. The resumed run's results, statistics and trace
// continue exactly where the interrupted run stopped, at any worker count.
// Checkpointing continues into the same directory. Combining it with
// WithCheckpoint is allowed only when both name the same directory
// (ErrConflictingCheckpoints otherwise), in which case the WithCheckpoint
// snapshot cadence applies to the resumed run.
func ResumeFromCheckpoint(dir string) Option {
	return func(o *analyzerOptions) { o.resumeDir = dir }
}

// ErrConflictingBudgets is returned by NewAnalyzer when both WithTimeBudget
// and WithCostBudget are supplied. The two budgets have incompatible
// semantics — cost budgets are deterministic and reproducible, time budgets
// are not — so the library refuses to guess which one should win.
var ErrConflictingBudgets = errors.New(
	"metainsight: WithTimeBudget and WithCostBudget are mutually exclusive; pick one")

// NewAnalyzer creates an analyzer over a dataset.
//
// Deprecated: NewAnalyzer is the pre-Session construction surface, kept as
// a thin shim over NewSession; use NewSession and Session.Analyze (see the
// migration table in README.md). Both surfaces funnel through the same
// construction path, so results, statistics and traces are bit-identical
// across them.
func NewAnalyzer(d *Dataset, opts ...Option) (*Analyzer, error) {
	s, err := NewSession(d, opts...)
	if err != nil {
		return nil, err
	}
	return s.analyzer(Request{})
}

// Mine runs the mining procedure, returning every qualified MetaInsight
// candidate (deduplicated, score-descending) plus run statistics. It is
// MineContext with a background context.
func (a *Analyzer) Mine() *MiningResult { return a.MineContext(context.Background()) }

// MineContext is Mine with cancellation: the context is checked at every
// unit-commit boundary, so a cancelled run stops on a whole-unit boundary and
// returns the best-so-far MetaInsights with Stats.Cancelled set. A run is
// never torn mid-commit — everything in the result was fully accounted.
func (a *Analyzer) MineContext(ctx context.Context) *MiningResult {
	cfg := a.cfg
	// Time budgets anchor at the call to Mine, not at analyzer creation,
	// and never override an explicit cost budget.
	if a.timeBudget > 0 && cfg.Budget == nil {
		cfg.Budget = engine.NewTimeBudget(a.timeBudget)
	}
	return miner.New(a.eng, cfg).RunContext(ctx)
}

// Rank selects the top-k MetaInsights with high usefulness and low
// inter-MetaInsight redundancy (the paper's greedy second-order algorithm).
func (a *Analyzer) Rank(result *MiningResult, k int) []*Insight {
	t0 := time.Now()
	top, sel := ranker.GreedyStats(result.MetaInsights, k, a.wts)
	if a.obs.Enabled() {
		a.obs.Phase(obs.PhaseRank, time.Since(t0))
		a.obs.SetGauge("ranker.pool", float64(sel.Pool))
		a.obs.SetGauge("ranker.selected", float64(sel.Selected))
		a.obs.SetGauge("ranker.overlap_evals", float64(sel.OverlapEvals))
	}
	out := make([]*Insight, len(top))
	for i, mi := range top {
		out[i] = &Insight{mi: mi, namer: a.cfg.Pattern.TypeName}
	}
	return out
}

// Snapshot publishes the engine's meter and cache statistics as gauges into
// the attached observer, then returns a point-in-time copy of all metrics,
// phase timers and trace totals. Without an observer it returns an empty
// snapshot. Reading a snapshot never perturbs the analysis.
func (a *Analyzer) Snapshot() MetricsSnapshot {
	if !a.obs.Enabled() {
		return MetricsSnapshot{}
	}
	a.obs.SetGauge("engine.cost_units", a.meter.Cost())
	a.obs.SetGauge("engine.queries.executed", float64(a.meter.ExecutedQueries()))
	a.obs.SetGauge("engine.queries.served", float64(a.meter.ServedQueries()))
	a.obs.SetGauge("engine.queries.augmented", float64(a.meter.AugmentedQueries()))
	qs := a.eng.QueryCache().Stats()
	a.obs.SetGauge("cache.query.hits", float64(qs.Hits))
	a.obs.SetGauge("cache.query.misses", float64(qs.Misses))
	a.obs.SetGauge("cache.query.entries", float64(qs.Entries))
	a.obs.SetGauge("cache.query.bytes", float64(qs.Bytes))
	for i, ss := range a.eng.QueryCache().ShardStats() {
		a.obs.SetGauge(fmt.Sprintf("cache.query.shard.%02d.entries", i), float64(ss.Entries))
	}
	ps := a.cfg.PatternCache.Stats()
	a.obs.SetGauge("cache.pattern.hits", float64(ps.Hits))
	a.obs.SetGauge("cache.pattern.misses", float64(ps.Misses))
	a.obs.SetGauge("cache.pattern.entries", float64(ps.Entries))
	for i, ss := range a.cfg.PatternCache.ShardStats() {
		a.obs.SetGauge(fmt.Sprintf("cache.pattern.shard.%02d.entries", i), float64(ss.Entries))
	}
	return a.obs.Snapshot()
}

// Observer returns the attached observer (nil when none was attached), for
// direct access to the trace ring.
func (a *Analyzer) Observer() *Observer { return a.obs }

// Engine exposes the underlying query engine for advanced use (issuing
// basic/augmented queries directly).
func (a *Analyzer) Engine() *engine.Engine { return a.eng }

// Analyze is the one-call API: mine with default configuration and return
// the top-k ranked insights. It is AnalyzeContext with a background context.
//
// Deprecated: use NewSession and Session.Analyze with Request{TopK: k}; a
// session amortizes dataset indexing and substrate construction across
// calls. This shim delegates to a single-use session and behaves
// identically.
func Analyze(d *Dataset, k int, opts ...Option) ([]*Insight, error) {
	return AnalyzeContext(context.Background(), d, k, opts...)
}

// AnalyzeContext is Analyze with cancellation; see MineContext for the
// cancellation contract. A cancelled run still ranks and returns whatever
// was mined before the cancellation point. Under an active fault policy the
// returned error may wrap ErrDegraded — the insights are still valid
// best-effort output, so check errors.Is(err, ErrDegraded) before discarding
// them.
//
// Deprecated: use NewSession and Session.Analyze with Request{TopK: k}.
func AnalyzeContext(ctx context.Context, d *Dataset, k int, opts ...Option) ([]*Insight, error) {
	s, err := NewSession(d, opts...)
	if err != nil {
		return nil, err
	}
	an, err := s.Analyze(ctx, Request{TopK: k})
	if an == nil {
		return nil, err
	}
	return an.Insights, err
}

// correlationEvaluator builds the scope-aware evaluator behind
// WithCorrelationPatterns: it fetches the secondary measure's series for the
// same scope (a cache hit — the query-cache unit spans all measures) and
// tests the paired series for significant correlation.
func correlationEvaluator(eng *engine.Engine, primary, secondary Measure) pattern.CustomEvaluator {
	const (
		alpha   = 0.05
		minAbsR = 0.5
	)
	return pattern.CustomEvaluator{
		Name:     fmt.Sprintf("Correlation(%s, %s)", primary, secondary),
		Requires: []Measure{secondary},
		EvaluateScope: func(scope DataScope, keys []string, values []float64) pattern.Evaluation {
			if scope.Measure != primary || scope.Breakdown == "" || len(values) < 5 {
				return pattern.Evaluation{}
			}
			other := scope
			other.Measure = secondary
			series, err := eng.BasicQuery(other)
			if err != nil || series.Len() != len(values) {
				return pattern.Evaluation{}
			}
			// Both series come from the same unit, so keys align; verify
			// defensively.
			for i, k := range series.Keys {
				if keys[i] != k {
					return pattern.Evaluation{}
				}
			}
			res := stats.PearsonR(values, series.Values)
			if res.P >= alpha || math.Abs(res.R) < minAbsR {
				return pattern.Evaluation{}
			}
			label := "positive"
			if res.R < 0 {
				label = "negative"
			}
			strength := res.R
			if strength < 0 {
				strength = -strength
			}
			return pattern.Evaluation{
				Valid:     true,
				Highlight: Highlight{Label: label},
				Strength:  strength,
			}
		},
	}
}

// Insight is a presentation wrapper around a mined MetaInsight.
type Insight struct {
	mi    *core.MetaInsight
	namer render.TypeNamer
}

// MetaInsight returns the underlying structured result.
func (in *Insight) MetaInsight() *MetaInsight { return in.mi }

// Score returns the usefulness score (Equation 18).
func (in *Insight) Score() float64 { return in.mi.Score }

// HasExceptions reports whether the insight carries exceptions — the
// property the paper's user study links to follow-up-analysis interest.
func (in *Insight) HasExceptions() bool { return in.mi.HasExceptions() }

// Description renders the insight as a sentence in the paper's narrative
// style ("For most Cities, Month: Apr has the lowest SUM(Sales), except…").
func (in *Insight) Description() string { return render.DescribeMetaInsightNamed(in.mi, in.namer) }

// FlatList renders the Flat-List Representation: every basic data pattern of
// the HDP described separately.
func (in *Insight) FlatList() []string { return render.FlatListNamed(in.mi, in.namer) }

// String implements fmt.Stringer.
func (in *Insight) String() string {
	return fmt.Sprintf("[%.3f] %s", in.mi.Score, in.Description())
}

// MarshalJSON serializes the insight as a structured JSON document
// (commonnesses with members and ratios, categorized exceptions, score
// components and the narrative description), for export to downstream
// tools.
func (in *Insight) MarshalJSON() ([]byte, error) {
	return json.Marshal(render.ToJSON(in.mi, in.namer))
}

// WriteReport renders the given insights as a markdown EDA report: one
// section per insight with its narrative, score breakdown, commonness
// membership, categorized exceptions, sparklines of the raw distributions
// and an optional flat-list appendix.
func (a *Analyzer) WriteReport(w io.Writer, insights []*Insight, title string) error {
	mis := make([]*core.MetaInsight, len(insights))
	for i, in := range insights {
		mis[i] = in.mi
	}
	return render.MarkdownReport(w, mis, render.ReportOptions{
		Title:      title,
		FlatList:   true,
		Sparklines: true,
		Engine:     a.eng,
		Namer:      a.cfg.Pattern.TypeName,
	})
}

// NewProgressiveRanker returns a live diversified top-k maintainer for
// budgeted runs: register its Add method with WithProgress and read TopK at
// any time while mining is still in flight.
//
//	prog := metainsight.NewProgressiveRanker(10)
//	a, _ := metainsight.NewAnalyzer(tab,
//		metainsight.WithTimeBudget(30*time.Second),
//		metainsight.WithProgress(prog.Add),
//	)
//	go a.Mine()
//	... // prog.TopK() serves the current suggestion
func NewProgressiveRanker(k int) *ranker.Progressive {
	return ranker.NewProgressive(k, ranker.DefaultWeights(), 0)
}

// CustomPatternType returns the PatternType assigned to the i-th registered
// custom pattern (WithCustomPatternTypes entries first, then one per
// WithCorrelationPatterns pair).
func CustomPatternType(i int) PatternType { return pattern.CustomType(i) }

// Describe renders any mined MetaInsight as a sentence in the paper's
// narrative style; it is the function behind Insight.Description for callers
// holding a raw *MetaInsight from MiningResult.MetaInsights.
func Describe(mi *MetaInsight) string { return render.DescribeMetaInsight(mi) }

// FlatListOf renders the Flat-List Representation of any mined MetaInsight.
func FlatListOf(mi *MetaInsight) []string { return render.FlatList(mi) }

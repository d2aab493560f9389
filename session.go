package metainsight

// The Session API is the package's analysis surface: a Session loads and
// indexes a dataset once and then serves many Analyze calls, each
// parameterized by a Request. Construction-time settings (execution layout,
// resilience, durability, custom patterns) are Options to NewSession;
// per-call knobs (measures, budgets, τ, top-k) travel in the Request. Every
// setting has exactly one spelling.
//
// Every Analyze call is hermetic: it runs with fresh query/pattern caches and a
// fresh meter, so its result — insights, statistics and trace — is
// bit-identical to the same call on a fresh session, regardless of what the
// session served before. What the session shares across calls is the
// expensive read-only state: the dataset's dictionaries, posting lists and zone
// maps (cached on the dataset itself), and the physical scan substrates (plan
// caches, accumulator pools), reused from a registry keyed by their full
// configuration.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"metainsight/internal/cache"
	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/faults"
	"metainsight/internal/miner"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
	"metainsight/internal/ranker"
	"metainsight/internal/render"
)

// ResilienceConfig groups the fault-handling settings: deterministic fault
// injection, retry/backoff/breaker behavior and the degraded-result
// threshold. Zero-valued fields leave the corresponding setting unchanged.
type ResilienceConfig struct {
	// Faults enables deterministic fault injection on every scan path:
	// seeded transient/permanent failures and simulated latency, keyed by
	// each query's canonical fingerprint (never wall-clock or shared RNG),
	// so a faulty run is exactly as reproducible — including across worker
	// counts — as a clean one. A zero policy injects nothing.
	Faults FaultPolicy
	// Retry configures retries with capped exponential backoff and
	// deterministic jitter, per-query cost deadlines, and the
	// consecutive-failure circuit breaker. Zero-value fields of a non-zero
	// policy take the defaults (RetryPolicy.WithDefaults); a zero value
	// leaves the retry policy unset (or, if Faults is enabled, the defaults
	// apply). Only meaningful together with Faults or a failure-capable
	// WithSubstrate.
	Retry RetryPolicy
	// DegradedThreshold is the query failure rate above which a run is
	// flagged degraded (MiningResult.Err wraps ErrDegraded). 0 keeps the
	// default (0.1); negative flags any failure; >= 1 never flags.
	DegradedThreshold float64
}

// DurabilityConfig groups crash-safety: checkpoint journaling and resume.
//
// A checkpointed run journals every committed unit to CheckpointDir (an
// append-only, CRC-framed log of the canonical commit stream) and writes an
// atomic snapshot of its full state every Every commits plus once at loop
// exit. Checkpointing requires the deterministic budget kinds — cost budget
// or unbounded — to guarantee a resumed run is bit-identical to an
// uninterrupted one; a time budget re-anchors at resume.
type DurabilityConfig struct {
	// CheckpointDir is the checkpoint directory. Empty disables
	// checkpointing. A fresh run requires a directory that does not already
	// hold a checkpoint (ErrCheckpointExists otherwise).
	CheckpointDir string
	// Every is the snapshot cadence in unit commits (<= 0 defaults to 256).
	Every int64
	// Resume restores a crashed or cancelled run from CheckpointDir instead
	// of starting fresh: the latest valid snapshot is restored, the journal
	// tail (tolerating a torn final record) is replayed by deterministic
	// re-execution — which also re-primes the caches — and mining re-enters
	// its loop on the pending work. The resumed run's results, statistics
	// and trace continue exactly where the interrupted run stopped, at any
	// worker count. Checkpointing continues into the same directory.
	// Combining a resuming and a fresh WithDurability is allowed only when
	// both name the same directory (ErrConflictingCheckpoints otherwise), in
	// which case the fresh config's Every applies to the resumed run.
	Resume bool
}

// WithResilience applies a resilience config. Zero-valued fields leave
// prior settings untouched.
func WithResilience(c ResilienceConfig) Option {
	return func(o *sessionConfig) {
		if c.Faults.Enabled() {
			o.faultPolicy = c.Faults
		}
		if c.Retry != (RetryPolicy{}) {
			o.retryPolicy = c.Retry
			o.retrySet = true
		}
		if c.DegradedThreshold != 0 {
			o.minerCfg.DegradedThreshold = c.DegradedThreshold
		}
	}
}

// WithDurability applies a durability config. Zero-valued fields leave
// prior settings untouched.
func WithDurability(c DurabilityConfig) Option {
	return func(o *sessionConfig) {
		if c.CheckpointDir == "" {
			return
		}
		if c.Resume {
			o.resumeDir = c.CheckpointDir
		} else {
			o.ckDir = c.CheckpointDir
		}
		if c.Every != 0 {
			o.ckEvery = c.Every
		}
	}
}

// Budget bounds one Analyze call. At most one field may be set: cost
// budgets are deterministic and exactly reproducible, time budgets are not,
// so the library refuses to combine them (ErrConflictingBudgets).
type Budget struct {
	// Time bounds mining by wall clock, anchored when mining starts; mining
	// is progressive and returns the best-so-far insights at the deadline.
	Time time.Duration
	// Cost bounds mining by deterministic engine cost units (one unit
	// approximates a millisecond of an IPC-backed query substrate). Runs
	// with a cost budget are exactly reproducible.
	Cost float64
}

// Request parameterizes one Session.Analyze call. Zero-valued fields take
// the library defaults.
type Request struct {
	// Measures is the mined measure set M (default: SUM over every measure
	// column plus COUNT(*)).
	Measures []Measure
	// ImpactMeasure sets the impact measure (must be SUM or COUNT; default
	// COUNT(*), as in the paper's evaluation).
	ImpactMeasure Measure
	// TopK is how many ranked insights to return (the paper's suggestion
	// count). Values <= 0 return no ranked insights; the Analysis still
	// carries every mined candidate in Result.
	TopK int
	// MaxFilters caps the number of subspace filters (default 3).
	MaxFilters int
	// Budget bounds the call by wall clock or by deterministic cost units.
	Budget Budget
	// Tau sets the commonness threshold τ (default 0.5). Only τ is touched:
	// the other score parameters keep their defaults.
	Tau float64
	// TopKPruning, when positive, enables S*-bounded early termination:
	// once TopKPruning MetaInsights are committed, candidates whose score
	// upper bound (Lemma 4.1's S* combined with the impact term of Equation
	// 18) cannot strictly beat the k-th best committed score are cut before
	// evaluation, so their sibling scans never run. Every MetaInsight whose
	// score strictly exceeds the run's final k-th best score is still mined,
	// so the score-ordered top k is preserved; mine with headroom (e.g. 2–4×
	// TopK) when ranking with diversity weights, which may promote
	// lower-scoring insights. Zero (the default) disables termination and
	// mines the complete candidate set; negative values are rejected
	// (ErrInvalidTopKPruning).
	TopKPruning int
	// Progress, when set, is invoked whenever the miner stores a new
	// MetaInsight, enabling progressive display during a budgeted run. The
	// callback is invoked serially from the miner's dispatcher goroutine, in
	// deterministic discovery order; it should be fast (it runs on the
	// mining path, pausing unit commits while it executes).
	Progress func(*MetaInsight)
	// Observer, when set, receives this call's metrics and trace,
	// overriding the session observer for the call.
	Observer *Observer
}

// Validation errors. Conflicting or malformed settings are rejected by
// NewSession or Session.Analyze with one of these (test with errors.Is)
// instead of surfacing as surprising behavior mid-run.
var (
	// ErrConflictingCheckpoints: a resuming and a fresh WithDurability name
	// different directories. Naming the same directory is fine — it resumes
	// and keeps checkpointing there.
	ErrConflictingCheckpoints = errors.New(
		"metainsight: resume and checkpoint name different directories; use one directory")
	// ErrInvalidTopKPruning: Request.TopKPruning was negative; use 0 to
	// disable early termination.
	ErrInvalidTopKPruning = errors.New(
		"metainsight: Request.TopKPruning must not be negative; use 0 to disable early termination")
	// ErrNegativeOption: a count or size option (workers, scan parallelism,
	// cache bytes) was negative.
	ErrNegativeOption = errors.New("metainsight: option value must be non-negative")
	// ErrSessionClosed: Analyze was called on a closed session.
	ErrSessionClosed = errors.New("metainsight: session is closed")
)

// resolveOptions applies the option list over the defaults and validates
// the combination.
func resolveOptions(opts []Option) (*sessionConfig, error) {
	o := &sessionConfig{minerCfg: miner.DefaultConfig()}
	for _, opt := range opts {
		opt(o)
	}
	if err := o.faultPolicy.Validate(); err != nil {
		return nil, err
	}
	if o.minerCfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrNegativeOption, o.minerCfg.Workers)
	}
	if o.scanPar < 0 {
		return nil, fmt.Errorf("%w: scan parallelism %d", ErrNegativeOption, o.scanPar)
	}
	if o.qcBytes < 0 || o.pcBytes < 0 {
		return nil, fmt.Errorf("%w: cache bytes %d/%d", ErrNegativeOption, o.qcBytes, o.pcBytes)
	}
	if o.subLimit < 0 {
		return nil, fmt.Errorf("%w: substrate cache limit %d", ErrNegativeOption, o.subLimit)
	}
	switch {
	case o.resumeDir != "" && o.ckDir != "" && o.resumeDir != o.ckDir:
		return nil, ErrConflictingCheckpoints
	case o.resumeDir != "":
		o.checkpoint = &miner.CheckpointSpec{Dir: o.resumeDir, Every: o.ckEvery, Resume: true}
	case o.ckDir != "":
		o.checkpoint = &miner.CheckpointSpec{Dir: o.ckDir, Every: o.ckEvery}
	}
	return o, nil
}

// apply writes a Request's per-call fields into the configuration and
// validates them.
func (o *sessionConfig) apply(r Request) error {
	if r.Budget.Time > 0 && r.Budget.Cost > 0 {
		return ErrConflictingBudgets
	}
	if r.TopKPruning < 0 {
		return ErrInvalidTopKPruning
	}
	o.measures = r.Measures
	o.impact = r.ImpactMeasure
	if r.MaxFilters > 0 {
		o.minerCfg.MaxSubspaceFilters = r.MaxFilters
	}
	o.timeBudget = r.Budget.Time
	o.costBudget = r.Budget.Cost
	if r.Tau != 0 {
		o.minerCfg.Score.Tau = r.Tau
	}
	o.minerCfg.TopK = r.TopKPruning
	o.minerCfg.OnMetaInsight = r.Progress
	if r.Observer != nil {
		o.observer = r.Observer
	}
	return nil
}

// Session is a long-lived analysis handle over one dataset: NewSession
// loads and validates once, Analyze serves many requests. Sessions are safe
// for concurrent Analyze calls; each call is hermetic (fresh caches and
// meter), sharing only the dataset's read-only index structures and the
// substrate registry.
type Session struct {
	d   *Dataset
	cfg sessionConfig

	mu       sync.Mutex
	closed   bool
	subs     map[string]*substrateEntry
	subLimit int
	useSeq   int64
}

// substrateEntry is one cached physical substrate plus the bookkeeping the
// bounded registry evicts by: lastUse orders entries least-recently-used
// first, ctor (the construction sequence number) breaks ties, so eviction is
// a deterministic function of the access history alone.
type substrateEntry struct {
	sub     Substrate
	lastUse int64
	ctor    int64
}

// DefaultSubstrateCacheLimit bounds how many distinct physical substrates a
// session retains. Each distinct substrate-shaping configuration (scan
// parallelism, MIN/MAX column set, observer identity) builds one substrate; a
// resident server handling heterogeneous requests would otherwise grow the
// registry forever. Override with WithSubstrateCacheLimit.
const DefaultSubstrateCacheLimit = 16

// WithSubstrateCacheLimit bounds the session's substrate registry to at most
// n cached physical substrates, evicted least-recently-used first (ties by
// construction order). 0 keeps DefaultSubstrateCacheLimit. Eviction never
// changes results — an evicted substrate is rebuilt on next use — it only
// re-pays plan-cache warmup.
func WithSubstrateCacheLimit(n int) Option {
	return func(o *sessionConfig) { o.subLimit = n }
}

// NewSession creates a session over a dataset. Construction validates the
// option combination eagerly (see the Err* validation errors), so a
// misconfigured session fails here rather than on first Analyze.
func NewSession(d *Dataset, opts ...Option) (*Session, error) {
	if d == nil {
		return nil, errors.New("metainsight: nil dataset")
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	limit := o.subLimit
	if limit == 0 {
		limit = DefaultSubstrateCacheLimit
	}
	return &Session{
		d:        d,
		cfg:      *o,
		subs:     make(map[string]*substrateEntry),
		subLimit: limit,
	}, nil
}

// Dataset returns the dataset the session analyzes.
func (s *Session) Dataset() *Dataset { return s.d }

// Close releases the session's cached physical substrates and marks the
// session closed; subsequent Analyze calls fail with ErrSessionClosed.
// In-flight Analyze calls are unaffected (they hold their substrate already).
// Close is idempotent. A resident server holding a registry of sessions
// should Close a session when evicting it, so the substrate memory is
// reclaimable immediately rather than when the GC notices.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.subs = nil
	return nil
}

// substrateCount reports how many physical substrates the registry currently
// retains (tests pin the LRU bound with it).
func (s *Session) substrateCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Analysis is the outcome of one Session.Analyze call: the ranked top-k
// insights plus the full mining result (every candidate and the run
// statistics).
type Analysis struct {
	// Insights is the ranked, redundancy-aware top-k selection.
	Insights []*Insight
	// Result holds every mined MetaInsight candidate plus run statistics.
	Result *MiningResult

	eng   *engine.Engine
	meter *engine.Meter
	pc    *cache.PatternCache[*pattern.ScopeEvaluation]
	obs   *obs.Observer
	namer render.TypeNamer
}

// Snapshot publishes the call's engine meter and cache statistics as gauges
// into its observer, then returns a point-in-time copy of all metrics, phase
// timers and trace totals. Without an observer it returns an empty
// snapshot. Reading a snapshot never perturbs the analysis.
func (an *Analysis) Snapshot() MetricsSnapshot {
	ob := an.obs
	if !ob.Enabled() {
		return MetricsSnapshot{}
	}
	ob.SetGauge("engine.cost_units", an.meter.Cost())
	ob.SetGauge("engine.queries.executed", float64(an.meter.ExecutedQueries()))
	ob.SetGauge("engine.queries.served", float64(an.meter.ServedQueries()))
	ob.SetGauge("engine.queries.augmented", float64(an.meter.AugmentedQueries()))
	qs := an.eng.QueryCache().Stats()
	ob.SetGauge("cache.query.hits", float64(qs.Hits))
	ob.SetGauge("cache.query.misses", float64(qs.Misses))
	ob.SetGauge("cache.query.entries", float64(qs.Entries))
	ob.SetGauge("cache.query.bytes", float64(qs.Bytes))
	for i, ss := range an.eng.QueryCache().ShardStats() {
		ob.SetGauge(fmt.Sprintf("cache.query.shard.%02d.entries", i), float64(ss.Entries))
	}
	ps := an.pc.Stats()
	ob.SetGauge("cache.pattern.hits", float64(ps.Hits))
	ob.SetGauge("cache.pattern.misses", float64(ps.Misses))
	ob.SetGauge("cache.pattern.entries", float64(ps.Entries))
	for i, ss := range an.pc.ShardStats() {
		ob.SetGauge(fmt.Sprintf("cache.pattern.shard.%02d.entries", i), float64(ss.Entries))
	}
	return ob.Snapshot()
}

// WriteReport renders the analysis' ranked insights as a markdown EDA
// report: one section per insight with its narrative, score breakdown,
// commonness membership, categorized exceptions, sparklines of the raw
// distributions and a flat-list appendix.
func (an *Analysis) WriteReport(w io.Writer, title string) error {
	mis := make([]*core.MetaInsight, len(an.Insights))
	for i, in := range an.Insights {
		mis[i] = in.mi
	}
	return render.MarkdownReport(w, mis, render.ReportOptions{
		Title:      title,
		FlatList:   true,
		Sparklines: true,
		Engine:     an.eng,
		Namer:      an.namer,
	})
}

// Engine exposes the call's query engine for ad-hoc follow-up queries — the
// "exception as a new entry point" loop of exploratory analysis.
func (an *Analysis) Engine() *engine.Engine { return an.eng }

// rank selects the top-k MetaInsights with high usefulness and low
// inter-MetaInsight redundancy (the paper's greedy second-order algorithm).
func (an *Analysis) rank(k int) []*Insight {
	t0 := time.Now()
	top, sel := ranker.GreedyStats(an.Result.MetaInsights, k, ranker.DefaultWeights())
	if an.obs.Enabled() {
		an.obs.Phase(obs.PhaseRank, time.Since(t0))
		an.obs.SetGauge("ranker.pool", float64(sel.Pool))
		an.obs.SetGauge("ranker.selected", float64(sel.Selected))
		an.obs.SetGauge("ranker.overlap_evals", float64(sel.OverlapEvals))
	}
	out := make([]*Insight, len(top))
	for i, mi := range top {
		out[i] = &Insight{mi: mi, namer: an.namer}
	}
	return out
}

// Analyze mines and ranks one request. Mining checks ctx at every
// unit-commit boundary, so a cancelled call stops on a whole-unit boundary,
// sets Stats.Cancelled and still ranks whatever was mined; a run is never
// torn mid-commit. The error may wrap ErrDegraded (best-effort result under
// faults) or a checkpoint sentinel, and the returned Analysis is still
// valid best-effort output whenever it is non-nil.
func (s *Session) Analyze(ctx context.Context, req Request) (*Analysis, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	o := s.cfg
	if err := o.apply(req); err != nil {
		return nil, err
	}
	an, cfg, err := s.prepare(&o)
	if err != nil {
		return nil, err
	}
	an.Result = miner.New(an.eng, cfg).RunContext(ctx)
	an.Insights = an.rank(req.TopK)
	return an, an.Result.Err
}

// prepare builds one call's execution state — engine, meter, caches and
// miner config — from its resolved configuration, over a substrate reused
// from the session registry.
func (s *Session) prepare(o *sessionConfig) (*Analysis, miner.Config, error) {
	var retry faults.RetryPolicy
	if o.retrySet {
		retry = o.retryPolicy
		if retry == (faults.RetryPolicy{}) {
			// All-zero from an explicit retry policy still means "use the
			// defaults", which NewInjector would otherwise read as absent.
			retry = retry.WithDefaults()
		}
	}
	qc := cache.NewQueryCache(!o.disableQC)
	if o.qcBytes > 0 {
		qc.SetMaxBytes(o.qcBytes)
	}
	meter := &engine.Meter{}
	// The needed-aggregate set: measures that registered evaluators will
	// query beyond the mined measure set. Custom patterns declare theirs via
	// CustomEvaluator.Requires; each correlation pair queries its secondary
	// measure for the primary's scopes. The engine derives from this which
	// MIN/MAX accumulators its scan substrate must materialize.
	reqCfg := pattern.Config{Custom: o.customPatterns}
	for _, pair := range o.correlations {
		reqCfg.Custom = append(reqCfg.Custom, pattern.CustomEvaluator{
			Requires: []Measure{pair[0], pair[1]},
		})
	}
	ecfg := engine.Config{
		Measures:      o.measures,
		ImpactMeasure: o.impact,
		ExtraMeasures: reqCfg.RequiredMeasures(),
		QueryCache:    qc,
		Meter:         meter,
		Observer:      o.observer,
		Substrate:     o.substrate,
		Faults:        faults.NewInjector(o.faultPolicy, retry),
	}
	if ecfg.Substrate == nil {
		sub, err := s.substrateFor(o, engine.MinMaxColumns(s.d, ecfg))
		if err != nil {
			return nil, miner.Config{}, err
		}
		ecfg.Substrate = sub
	}
	eng, err := engine.New(s.d, ecfg)
	if err != nil {
		return nil, miner.Config{}, err
	}
	cfg := o.minerCfg
	if len(o.customPatterns) > 0 || len(o.correlations) > 0 {
		cfg.Pattern.Custom = append(cfg.Pattern.Custom, o.customPatterns...)
		for _, pair := range o.correlations {
			cfg.Pattern.Custom = append(cfg.Pattern.Custom, correlationEvaluator(eng, pair[0], pair[1]))
		}
	}
	cfg.PatternCache = cache.NewPatternCache[*pattern.ScopeEvaluation](!o.disablePC)
	if o.pcBytes > 0 {
		cfg.PatternCache.SetMaxBytes(o.pcBytes, func(key string, se *pattern.ScopeEvaluation) int64 {
			return int64(len(key)) + se.ApproxBytes()
		})
	}
	cfg.Observer = o.observer
	cfg.Checkpoint = o.checkpoint
	switch {
	case o.costBudget > 0:
		cfg.Budget = engine.CostBudget{Meter: meter, Limit: o.costBudget}
	case o.timeBudget > 0:
		// Anchored here, as mining starts.
		cfg.Budget = engine.NewTimeBudget(o.timeBudget)
	}
	an := &Analysis{
		eng: eng, meter: meter, pc: cfg.PatternCache,
		obs: o.observer, namer: cfg.Pattern.TypeName,
	}
	return an, cfg, nil
}

// substrateFor returns the physical scan substrate for one resolved
// configuration, reusing a previously built one from the session registry when
// every substrate-affecting setting matches. Substrates are safe to share:
// scans are read-only over the dataset, plan caches and accumulator pools are
// internally synchronized, and reuse never changes results — it only skips
// re-planning.
func (s *Session) substrateFor(o *sessionConfig, need map[string]bool) (Substrate, error) {
	cols := make([]string, 0, len(need))
	for c := range need {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	// The key covers every input that shapes the substrate, including the
	// observer identity (substrates bake their observer in).
	key := fmt.Sprintf("par=%d mm=%v obs=%p", o.scanPar, cols, o.observer)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.useSeq++
	if e, ok := s.subs[key]; ok {
		e.lastUse = s.useSeq
		return e.sub, nil
	}
	sub := engine.NewColumnarSubstrate(s.d,
		engine.WithMinMaxColumns(need),
		engine.WithScanParallelism(o.scanPar),
		engine.WithScanObserver(o.observer))
	s.subs[key] = &substrateEntry{sub: sub, lastUse: s.useSeq, ctor: s.useSeq}
	// Bounded registry: evict least-recently-used entries (ties broken by
	// construction order) until the limit holds. Eviction only drops the
	// cached reference; an in-flight Analyze keeps its substrate alive.
	for s.subLimit > 0 && len(s.subs) > s.subLimit {
		var victim string
		var ve *substrateEntry
		for k, e := range s.subs {
			if ve == nil || e.lastUse < ve.lastUse ||
				(e.lastUse == ve.lastUse && e.ctor < ve.ctor) {
				victim, ve = k, e
			}
		}
		delete(s.subs, victim)
	}
	return sub, nil
}

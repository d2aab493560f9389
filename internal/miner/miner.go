// Package miner implements the MetaInsight mining procedure of Section 4.2:
// pattern-guided search over data scopes, impact-ordered priority queues for
// the data-pattern and MetaInsight compute units, augmented-query prefetching
// through the query cache, pattern-cache memoization of evaluations, the two
// pruning rules, and a progressive budget. The procedure is decomposed into
// the paper's three functionalities — search (subspace expansion), query
// (internal/engine + internal/cache) and evaluation (internal/pattern +
// internal/core) — wired together by a dispatcher and a worker pool.
//
// Concurrency model: workers execute compute units speculatively and purely.
// They touch no shared miner state; all data access goes through the
// engine's quiet single-flighted paths (so two workers never scan the same
// unit twice concurrently), and every logical query or evaluation the unit
// performs is recorded as a usage event (see usage.go). The dispatcher — the
// only goroutine that mutates miner state — commits completed units in
// canonical order (the order a single worker would process them) and replays
// their usage events against a simulated cache. Statistics, budget spending,
// result deduplication and MetaInsight emission therefore need no locks and
// are bit-identical for any worker count.
package miner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metainsight/internal/cache"
	"metainsight/internal/core"
	"metainsight/internal/engine"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
)

// Config configures a mining run.
type Config struct {
	// Score holds the MetaInsight scoring hyper-parameters (τ, k, r, γ).
	// Unset (zero) fields are filled individually from the paper defaults
	// (core.ScoreParams.WithDefaults), so overriding only Tau keeps k, r
	// and γ meaningful.
	Score core.ScoreParams
	// Pattern holds the evaluation-criterion thresholds.
	Pattern pattern.Config
	// MaxSubspaceFilters caps the number of non-empty filters in a subspace;
	// the paper's configuration uses 3.
	MaxSubspaceFilters int
	// MaxBreakdownCardinality skips dimensions with larger domains during
	// expansion — both as breakdown dimensions and as filter dimensions
	// (unbounded if 0). Very high-cardinality breakdowns produce unreadable
	// charts, and high-cardinality filter dimensions explode the subspace
	// frontier; both dominate cost.
	MaxBreakdownCardinality int
	// MinImpact is Pruning 2's threshold: MetaInsight compute units whose
	// g(Impact_HDS) falls below it are discarded (the paper suggests 0.01).
	// Set negative to disable.
	MinImpact float64
	// MinSubspaceImpact prunes the subspace search frontier: children whose
	// impact falls below it are not explored. It must be at most MinImpact
	// for Pruning 2 to remain meaningful (an HDS's impact is never below its
	// anchor subspace's). Set negative to disable.
	MinSubspaceImpact float64
	// TopK, when positive, enables S*-bounded early termination: once K
	// MetaInsights are committed, a MetaInsight compute unit whose score
	// upper bound (core.ScoreUpperBound, from Lemma 4.1's S* and the
	// cheapest-exception entropy floor) cannot strictly beat the K-th best
	// committed score is cut before evaluation — none of its sibling scans
	// ever reach the engine and none of its cost is charged. The K-th best
	// score is monotone nondecreasing over commits and every cut is decided
	// on the dispatcher's canonical commit path, so results and statistics
	// remain bit-identical for any worker count, and every MetaInsight whose
	// score strictly exceeds the run's final K-th best score is still mined.
	// Zero (the default) disables termination; callers that rank more than K
	// insights, or rank with diversity weights rather than raw score, should
	// size TopK accordingly or leave it off.
	TopK int
	// Workers is the number of evaluation goroutines; the paper uses 8.
	// Worker count affects only wall-clock time: results, statistics and
	// budget consumption are identical for any value.
	Workers int
	// UsePriorityQueues selects impact-ordered queues (true, the paper's
	// design) or FIFO queues (the Figure 6 ablation baseline).
	UsePriorityQueues bool
	// EnablePruning1 enables early termination of HDP evaluation once no
	// commonness can reach τ.
	EnablePruning1 bool
	// EnablePruning2 enables discarding low-impact MetaInsight units.
	EnablePruning2 bool
	// EnableBoundPruning cuts frontier work using the engine's precomputed
	// impact-sum bounds (engine.ImpactShareUpperBound / DimMaxImpactShare)
	// before any query is issued: a subspace-extension whose root-subspace
	// impact bound cannot reach MinImpact is never emitted (the Pruning 2
	// check would discard it after the scan anyway), and an expansion
	// dimension whose heaviest value cannot reach MinSubspaceImpact is never
	// scanned (every child it could produce would be filtered). Both bounds
	// are sound upper bounds on the true impact, so the mined MetaInsights
	// are identical with the flag on or off — only the query/cost accounting
	// differs (fewer scans, counted in Stats.BoundSkips/BoundScanSkips). The
	// cut decisions are pure functions of the immutable table and the
	// configuration, so they are worker-count-invariant and resume-safe.
	// When the bounds are unsound (SUM impact over a column with negative
	// values) they return the trivial bound and the cuts never fire.
	EnableBoundPruning bool
	// Budget bounds the run; nil means Unlimited. The budget is checked
	// before each unit commit, so a run stops on a whole-unit boundary.
	Budget Budget
	// PatternCache is the evaluation memo; nil creates an enabled cache.
	// Pass a disabled cache for the "w/o Pattern Cache" ablation.
	PatternCache *cache.PatternCache[*pattern.ScopeEvaluation]
	// OnMetaInsight, when set, is invoked once for each newly stored
	// MetaInsight as the progressive mining run discovers it. Calls are made
	// serially from the dispatcher goroutine, in deterministic discovery
	// (commit) order.
	OnMetaInsight func(*core.MetaInsight)
	// Observer, when non-nil, receives run observability: metric counters
	// and trace events recorded on the dispatcher's serial commit path (so
	// trace order is the deterministic commit order), and phase timers
	// accumulated via atomics. Observation is inert: results, statistics and
	// budget spending are bit-identical with the observer on or off.
	Observer *obs.Observer
	// DegradedThreshold is the failure-rate bound of graceful degradation:
	// when more than this fraction of the run's unit queries permanently
	// failed (injected faults or substrate errors), the result is still
	// returned — best-effort, with every committed MetaInsight — but
	// Result.Err is set to a wrapped ErrDegraded. The default is 0.1; set
	// negative to flag any failure, or >= 1 to never flag.
	DegradedThreshold float64
	// PatternsFirst schedules MetaInsight compute units only when no
	// data-pattern work is pending, following the sequential reading of the
	// paper's workflow (the data pattern mining module feeds the
	// MetaInsight mining module). The default (false) is the best-effort
	// progressive scheduler: one merged impact-ordered queue, which lets
	// augmented-query prefetches also serve upcoming data-pattern units —
	// strictly fewer executed queries, at the price of deviating from the
	// paper's two-module accounting (see the Figure 7 experiment).
	PatternsFirst bool
	// Checkpoint, when set, makes the run crash-safe: the dispatcher appends
	// one durable journal record per committed unit and writes an atomic
	// snapshot every Checkpoint.Every commits (see internal/checkpoint and
	// DESIGN.md §7). With Resume set, the run restores the directory's latest
	// valid state first and continues bit-identically to an uninterrupted
	// run.
	Checkpoint *CheckpointSpec
	// HaltAfterCommits, when positive, hard-stops the dispatcher after that
	// many unit commits without writing a final snapshot — a deterministic
	// stand-in for kill -9 used by the kill-and-resume tests and the CI
	// smoke arm. Zero (the default) never halts.
	HaltAfterCommits int64
}

// CheckpointSpec configures crash-safety for one run.
type CheckpointSpec struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Every is the snapshot cadence in unit commits; <= 0 defaults to 256.
	// The journal bounds replay work between snapshots, so Every trades
	// snapshot I/O against resume time, never correctness.
	Every int64
	// Resume restores the run from Dir instead of starting fresh. The
	// directory's configuration fingerprint must match this run's
	// configuration (ErrCheckpointMismatch otherwise).
	Resume bool
}

// DefaultConfig mirrors the paper's configuration: depth-3 subspaces,
// 8 workers, priority queues, both prunings, τ = 0.5 scoring.
func DefaultConfig() Config {
	return Config{
		Score:                   core.DefaultScoreParams(),
		Pattern:                 pattern.DefaultConfig(),
		MaxSubspaceFilters:      3,
		MaxBreakdownCardinality: 50,
		MinImpact:               0.01,
		MinSubspaceImpact:       0.005,
		Workers:                 8,
		UsePriorityQueues:       true,
		EnablePruning1:          true,
		EnablePruning2:          true,
		EnableBoundPruning:      true,
		Budget:                  Unlimited{},
		DegradedThreshold:       0.1,
	}
}

// ErrDegraded is reported (wrapped, via Result.Err) when a run's query
// failure rate exceeded Config.DegradedThreshold. The result still carries
// every MetaInsight committed from the queries that did succeed; the error
// marks the output as best-effort rather than complete.
var ErrDegraded = errors.New("miner: degraded result: query failure rate exceeded threshold")

// Stats aggregates counters from one mining run. All counters reflect
// committed compute units only and are identical for any Workers value.
type Stats struct {
	ExpandUnits      int64 // subspace expansions processed
	DataPatternUnits int64 // data-pattern compute units processed
	MetaInsightUnits int64 // MetaInsight compute units processed
	EmittedMIUnits   int64 // MetaInsight compute units emitted
	PatternsFound    int64 // valid (scope, type) basic data patterns
	Pruned1          int64 // HDP evaluations cut short by Pruning 1
	Pruned2          int64 // MetaInsight units discarded by Pruning 2
	// SStarCut counts MetaInsight compute units cut by S*-bounded early
	// termination (Config.TopK): their score upper bound could not beat the
	// K-th best committed score, so they were dropped without evaluation —
	// no queries, no budget, no MetaInsightUnits increment.
	SStarCut int64
	// BoundSkips counts subspace-extension candidates cut by the impact-sum
	// bounds (Config.EnableBoundPruning) before their root-impact query was
	// issued; BoundScanSkips counts frontier expansion scans skipped because
	// the dimension's heaviest value could not reach MinSubspaceImpact. Both
	// cuts are result-identical to scan-then-prune, so these counters trade
	// one-for-one against queries, Pruned2 discards and empty child lists —
	// never against mined MetaInsights.
	BoundSkips       int64
	BoundScanSkips   int64
	PrefetchFailures int64 // augmented prefetches that fell back to basic queries
	// FailedUnits counts queries that permanently failed (injected permanent
	// faults, exhausted retries, deadline overruns, or real substrate
	// errors); each is skipped-but-accounted and the run continues.
	FailedUnits int64
	// Retries counts failed attempts that were retried (both those that
	// eventually succeeded and those that exhausted their attempt budget).
	Retries int64
	// BreakerTrips counts circuit-breaker open transitions.
	BreakerTrips int64
	// PanickedUnits counts compute units whose evaluation panicked; each was
	// recovered on its worker and committed as failed-and-accounted (see
	// EvUnitPanic) instead of crashing the run. Panics are pure functions of
	// the unit and the data, so the count is worker-count-invariant.
	PanickedUnits int64
	// Evictions counts entries evicted from the byte-bounded caches, per the
	// canonical commit-order simulation (0 when the caches are unbounded).
	Evictions int64
	// ShortSeriesSkips counts (scope, measure) series skipped for having
	// fewer than 3 points — expected data sparsity, not an error.
	ShortSeriesSkips int64
	// ExtractErrors counts series extractions that failed structurally
	// (missing measure column), previously conflated with short series.
	ExtractErrors    int64
	ExecutedQueries  int64
	AugmentedQueries int64
	CacheServed      int64
	CostUsed         float64
	// CheckpointWrites counts durable snapshots written, cumulatively across
	// a resumed run's lifetimes (a run resumed once and finishing with N
	// total snapshots reports N, exactly like the uninterrupted run).
	CheckpointWrites int64
	// ResumedUnits is the commit index this run restored from its checkpoint
	// directory (snapshot commits + replayed journal records); 0 for a fresh
	// run. It is the one Stats field that legitimately differs between an
	// uninterrupted run and a killed-and-resumed one.
	ResumedUnits int64
	// Cancelled reports that the run stopped early because its context was
	// cancelled; the result holds the best-so-far MetaInsights committed up
	// to the cancellation point.
	Cancelled         bool
	QueryCacheStats   cache.Stats
	PatternCacheStats cache.Stats
}

// Result is the outcome of a mining run: all qualified MetaInsight
// candidates (deduplicated by identity key, sorted by score descending) and
// run statistics. Candidates feed the ranking stage (Section 4.3).
type Result struct {
	MetaInsights []*core.MetaInsight
	Stats        Stats
	// Err is non-nil when the run degraded: the query failure rate exceeded
	// Config.DegradedThreshold (errors.Is(Err, ErrDegraded)). MetaInsights
	// and Stats are still valid best-effort output.
	Err error
}

// Keys returns the identity keys of the mined MetaInsights, the set the
// precision metric of Definition 5.1 intersects.
func (r *Result) Keys() map[string]bool {
	keys := make(map[string]bool, len(r.MetaInsights))
	for _, mi := range r.MetaInsights {
		keys[mi.Key()] = true
	}
	return keys
}

// Miner drives one mining run over an engine.
type Miner struct {
	eng *engine.Engine
	cfg Config

	pcache *cache.PatternCache[*pattern.ScopeEvaluation]

	// stopping is set once the dispatcher stops committing (budget exhausted
	// or work drained); workers abort promptly, and their output is
	// discarded, never committed.
	stopping atomic.Bool

	// Dispatcher-owned state: written only by Run's dispatcher goroutine,
	// in commit order. No lock needed.
	results map[string]*core.MetaInsight
	seenMI  map[string]bool
	stats   Stats
	seq     int64
	acct    *accounting
	// topScores holds the scores of the best min(TopK, committed) results,
	// sorted descending — the termination threshold of Config.TopK. Derived
	// from results, so a snapshot restore rebuilds it instead of saving it.
	topScores []float64
	// commitIndex counts unit commits across the run's whole lifetime
	// (snapshot base + replayed + live); the checkpoint journal and snapshot
	// cadence key off it.
	commitIndex int64
	// ckErr records the first checkpoint I/O failure; the run stops (its
	// determinism guarantee would otherwise silently lapse) and the error is
	// joined into Result.Err.
	ckErr error
}

// New creates a Miner. The zero-value parts of cfg are filled with defaults.
func New(eng *engine.Engine, cfg Config) *Miner {
	def := DefaultConfig()
	cfg.Score = cfg.Score.WithDefaults()
	if cfg.Pattern.Alpha == 0 {
		custom := cfg.Pattern.Custom
		cfg.Pattern = def.Pattern
		cfg.Pattern.Custom = custom
	}
	if cfg.MaxSubspaceFilters == 0 {
		cfg.MaxSubspaceFilters = def.MaxSubspaceFilters
	}
	if cfg.MaxBreakdownCardinality == 0 {
		cfg.MaxBreakdownCardinality = def.MaxBreakdownCardinality
	}
	if cfg.MinImpact == 0 {
		cfg.MinImpact = def.MinImpact
	}
	if cfg.MinSubspaceImpact == 0 {
		cfg.MinSubspaceImpact = def.MinSubspaceImpact
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.Budget == nil {
		cfg.Budget = Unlimited{}
	}
	if cfg.DegradedThreshold == 0 {
		cfg.DegradedThreshold = def.DegradedThreshold
	}
	if cfg.PatternCache == nil {
		cfg.PatternCache = cache.NewPatternCache[*pattern.ScopeEvaluation](true)
	}
	return &Miner{
		eng:     eng,
		cfg:     cfg,
		pcache:  cfg.PatternCache,
		results: make(map[string]*core.MetaInsight),
		seenMI:  make(map[string]bool),
	}
}

// completion is the output of one speculatively executed compute unit,
// applied by the dispatcher if and when the unit commits.
type completion struct {
	unit     *workUnit
	produced []*workUnit // children; kindMetaInsight entries are candidates
	events   []usageEvent
	delta    statDelta
	mi       *core.MetaInsight // non-nil when a kindMetaInsight unit qualified
	// panicked marks a unit whose process call panicked; panicVal carries the
	// rendered panic value. The unit commits as failed-and-accounted: no
	// events, no children, no MetaInsight.
	panicked bool
	panicVal string
	// cut marks a unit S*-terminated at dispatch time without execution; the
	// commit path re-derives the same verdict for units that did execute (the
	// K-th best score is monotone, so a dispatch-time cut never un-cuts).
	cut bool
}

// specEntry tracks one dispatched-but-uncommitted unit.
type specEntry struct {
	unit *workUnit
	comp *completion // nil while the unit is in flight
}

// Run executes the mining procedure and returns all discovered MetaInsights.
func (m *Miner) Run() *Result { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked at
// every unit-commit boundary (the same whole-unit granularity as budget
// checks), so a cancelled run stops promptly, never tears a commit in half,
// and returns the best-so-far results with Stats.Cancelled set.
func (m *Miner) RunContext(ctx context.Context) *Result {
	o := m.cfg.Observer
	initStart := time.Now()
	patternQ := m.newQueue()
	miQ := patternQ
	if m.cfg.PatternsFirst {
		miQ = m.newQueue()
	}

	m.acct = newAccounting(m.eng, m.pcache, m.cfg.Observer)

	// stopped is set when a resume's replay was cancelled mid-way: the
	// restored state is checkpointed again and returned without re-entering
	// the mining loop.
	var ck *ckptRunner
	stopped := false
	if cs := m.cfg.Checkpoint; cs != nil {
		var err error
		ck, stopped, err = m.initCheckpoint(ctx, cs, patternQ, miQ)
		if err != nil {
			return &Result{Stats: m.stats, Err: err}
		}
		defer ck.close()
	} else {
		m.pushRoot(patternQ)
	}

	workCh := make(chan *workUnit)
	doneCh := make(chan *completion)
	var wg sync.WaitGroup
	for i := 0; i < m.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range workCh {
				if o != nil {
					// Worker-side phase accounting is atomic-only and
					// therefore inert; totals are CPU time across workers.
					t0 := time.Now()
					c := m.safeProcess(u)
					o.Phase(u.kind.phase(), time.Since(t0))
					doneCh <- c
					continue
				}
				doneCh <- m.safeProcess(u)
			}
		}()
	}
	o.Phase(obs.PhaseInit, time.Since(initStart))

	// spec holds dispatched-but-uncommitted units in dispatch order;
	// inflight counts those still being processed. Speculation is bounded so
	// one slow canonical-head unit cannot pile up unbounded completed work.
	var spec []*specEntry
	inflight := 0
	patternSpec := 0 // spec entries on the pattern side (non-MetaInsight)
	specCap := 8 * m.cfg.Workers

	// bestSpec returns the canonically-first spec entry, optionally
	// restricted to one side.
	bestSpec := func(side unitKind, restrict bool) *specEntry {
		var best *specEntry
		for _, e := range spec {
			if restrict && (e.unit.kind == kindMetaInsight) != (side == kindMetaInsight) {
				continue
			}
			if best == nil || m.canonicalBefore(e.unit, best.unit) {
				best = e
			}
		}
		return best
	}
	firstOf := func(ready *workUnit, e *specEntry) (*workUnit, *specEntry) {
		if e == nil {
			return ready, nil
		}
		if ready == nil || m.canonicalBefore(e.unit, ready) {
			return e.unit, e
		}
		return ready, nil
	}
	// canonicalNext returns the unit a single-worker run would process next
	// given the committed state, and its spec entry if it has already been
	// dispatched. Under PatternsFirst, any outstanding pattern-side unit
	// precedes every MetaInsight unit (the pattern side can still refill).
	canonicalNext := func() (*workUnit, *specEntry) {
		if m.cfg.PatternsFirst {
			if u, e := firstOf(patternQ.Peek(), bestSpec(kindDataPattern, true)); u != nil {
				return u, e
			}
			return firstOf(miQ.Peek(), bestSpec(kindMetaInsight, true))
		}
		return firstOf(patternQ.Peek(), bestSpec(0, false))
	}
	// nextReady returns the queue to dispatch from, mirroring the canonical
	// preference: pattern work first, and under PatternsFirst no MetaInsight
	// unit is dispatched while pattern-side work is outstanding (it cannot
	// commit before that work anyway).
	nextReady := func() workQueue {
		if patternQ.Len() > 0 {
			return patternQ
		}
		if m.cfg.PatternsFirst && patternSpec > 0 {
			return nil
		}
		if miQ.Len() > 0 {
			return miQ
		}
		return nil
	}
	remove := func(e *specEntry) {
		for i, x := range spec {
			if x == e {
				spec = append(spec[:i], spec[i+1:]...)
				break
			}
		}
		if e.unit.kind != kindMetaInsight {
			patternSpec--
		}
	}
	receive := func(c *completion) {
		for _, e := range spec {
			if e.unit == c.unit {
				e.comp = c
				break
			}
		}
		inflight--
	}

	halted := false
	for !stopped {
		if ctx.Err() != nil {
			m.stats.Cancelled = true
			o.Event(obs.EvCancel, "", "context cancelled; returning best-so-far results", 0)
			break
		}
		if m.cfg.Budget.Exceeded() {
			o.Event(obs.EvBudgetStop, "", fmt.Sprintf("cost=%.3f", m.acct.cost), 0)
			break
		}
		next, entry := canonicalNext()
		if next == nil && inflight == 0 {
			break
		}
		if entry != nil && entry.comp != nil {
			m.commit(entry.comp, miQ, patternQ)
			remove(entry)
			m.commitIndex++
			if ck != nil {
				if err := ck.onCommit(m, entry.comp, patternQ, miQ, spec); err != nil {
					m.ckErr = err
					break
				}
			}
			if m.cfg.HaltAfterCommits > 0 && m.commitIndex >= m.cfg.HaltAfterCommits {
				halted = true
				break
			}
			continue
		}
		if inflight < m.cfg.Workers && len(spec) < specCap {
			if q := nextReady(); q != nil {
				u := q.Peek()
				if m.sstarCut(u) {
					// Dispatch-time pre-filter: the K-th best score only
					// grows, so the cut still holds at the unit's canonical
					// commit slot. Skip the worker round-trip entirely and
					// let commit record the cut in its slot.
					q.Pop()
					spec = append(spec, &specEntry{unit: u, comp: &completion{unit: u, cut: true}})
					continue
				}
				select {
				case workCh <- u:
					q.Pop()
					spec = append(spec, &specEntry{unit: u})
					if u.kind != kindMetaInsight {
						patternSpec++
					}
					inflight++
					continue
				case c := <-doneCh:
					receive(c)
					continue
				}
			}
		}
		if inflight == 0 {
			break
		}
		receive(<-doneCh)
	}

	m.stopping.Store(true)
	close(workCh)
	// Drain remaining in-flight units; their output is discarded (the
	// budget is spent), so it is never accounted.
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	for range doneCh {
	}

	// Final snapshot: budget stop, drained work, cancellation and a replay
	// cancelled mid-resume all leave a resumable (or, when the run simply
	// finished, re-loadable) directory behind. A HaltAfterCommits hard-stop
	// deliberately skips it — that is the simulated crash — and after a
	// checkpoint I/O failure the directory is not trustworthy to advance.
	if ck != nil && !halted && m.ckErr == nil {
		if err := ck.writeFinalSnapshot(m, patternQ, miQ, spec); err != nil {
			m.ckErr = err
		}
	}

	return m.finish()
}

// sstarCut reports whether a MetaInsight unit provably cannot enter the
// current top K: its score upper bound does not exceed the K-th best
// committed score (ties lose — an equal-scoring insight cannot displace one
// already committed). The threshold is monotone nondecreasing over commits,
// so a verdict reached at dispatch time still holds at the unit's canonical
// commit slot, where the decision is authoritative.
func (m *Miner) sstarCut(u *workUnit) bool {
	if m.cfg.TopK <= 0 || u.kind != kindMetaInsight || len(m.topScores) < m.cfg.TopK {
		return false
	}
	ub := core.ScoreUpperBound(u.impactHDS, len(u.hds.Scopes), m.cfg.Score)
	return ub <= m.topScores[m.cfg.TopK-1]
}

// recordTopScore folds a newly stored result's score into the sorted top-K
// threshold list (no-op when S* termination is off).
func (m *Miner) recordTopScore(s float64) {
	if m.cfg.TopK <= 0 {
		return
	}
	i := sort.Search(len(m.topScores), func(i int) bool { return m.topScores[i] < s })
	if i >= m.cfg.TopK {
		return
	}
	m.topScores = append(m.topScores, 0)
	copy(m.topScores[i+1:], m.topScores[i:])
	m.topScores[i] = s
	if len(m.topScores) > m.cfg.TopK {
		m.topScores = m.topScores[:m.cfg.TopK]
	}
}

// rebuildTopScores rederives the termination threshold from the committed
// results — the snapshot-restore path, where topScores is not serialized.
func (m *Miner) rebuildTopScores() {
	m.topScores = m.topScores[:0]
	for _, mi := range m.results {
		m.recordTopScore(mi.Score)
	}
}

// canonicalBefore reports whether a precedes b in the canonical processing
// order: priority descending with seq as tie-breaker under priority queues,
// emission (seq) order under FIFO queues. It matches the queues' ordering.
func (m *Miner) canonicalBefore(a, b *workUnit) bool {
	if m.cfg.UsePriorityQueues && a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// commitCostBounds buckets the per-commit replayed cost (deterministic cost
// units, so the histogram itself is worker-count-invariant).
var commitCostBounds = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// commit applies one completed unit in canonical order: replay its usage
// events against the simulated cache (charging the meter), fold its
// counters, filter and enqueue its children, and record its MetaInsight.
// All observability recording here runs on the dispatcher goroutine, so the
// trace reads as the deterministic canonical execution.
func (m *Miner) commit(c *completion, miQ, patternQ workQueue) {
	o := m.cfg.Observer
	traced := o.Tracing()
	var t0 time.Time
	var costBefore float64
	if o != nil {
		t0 = time.Now()
		costBefore = m.acct.cost
	}
	if traced {
		o.Event(obs.EvPop, describeUnit(c.unit), c.unit.kind.String(), 0)
	}
	if c.cut || m.sstarCut(c.unit) {
		// S*-terminated at the canonical slot. The unit is dropped wholesale:
		// no usage replay, no budget charge, no kind counter — a single-worker
		// run would have cut it before execution, so even a speculative
		// evaluation (or panic) on some worker is discarded, keeping the
		// commit stream worker-count-invariant.
		c.cut, c.panicked = true, false
		c.produced, c.events, c.mi = nil, nil, nil
		m.stats.SStarCut++
		if o != nil {
			o.Count("miner.sstar_cut", 1)
			if traced {
				o.Event(obs.EvPrune, describeUnit(c.unit), "sstar", 0)
			}
			o.Observe("miner.commit.cost_units", commitCostBounds, 0)
			o.Phase(obs.PhaseCommit, time.Since(t0))
		}
		return
	}
	if c.panicked {
		// Failed-and-accounted: the unit's kind counter still advances (it
		// was processed), but it contributes no usage, children or result.
		m.stats.ExpandUnits += c.delta.expandUnits
		m.stats.DataPatternUnits += c.delta.dataPatternUnits
		m.stats.MetaInsightUnits += c.delta.metaInsightUnits
		m.stats.PanickedUnits++
		if o != nil {
			o.Count("miner.units.expand", c.delta.expandUnits)
			o.Count("miner.units.datapattern", c.delta.dataPatternUnits)
			o.Count("miner.units.metainsight", c.delta.metaInsightUnits)
			o.Count("miner.units.panicked", 1)
			if traced {
				o.Event(obs.EvUnitPanic, describeUnit(c.unit), c.panicVal, 0)
			}
			o.Observe("miner.commit.cost_units", commitCostBounds, 0)
			o.Phase(obs.PhaseCommit, time.Since(t0))
		}
		return
	}
	for _, ev := range c.events {
		m.acct.apply(ev)
	}
	m.stats.ExpandUnits += c.delta.expandUnits
	m.stats.DataPatternUnits += c.delta.dataPatternUnits
	m.stats.MetaInsightUnits += c.delta.metaInsightUnits
	m.stats.PatternsFound += c.delta.patternsFound
	m.stats.Pruned1 += c.delta.pruned1
	m.stats.BoundSkips += c.delta.boundSkips
	m.stats.BoundScanSkips += c.delta.boundScanSkips
	m.stats.ShortSeriesSkips += c.delta.shortSeriesSkips
	m.stats.ExtractErrors += c.delta.extractErrors
	if o != nil {
		o.Count("miner.units.expand", c.delta.expandUnits)
		o.Count("miner.units.datapattern", c.delta.dataPatternUnits)
		o.Count("miner.units.metainsight", c.delta.metaInsightUnits)
		o.Count("miner.patterns.found", c.delta.patternsFound)
		o.Count("miner.pruned1", c.delta.pruned1)
		o.Count("miner.bound_skips", c.delta.boundSkips)
		o.Count("miner.bound_scan_skips", c.delta.boundScanSkips)
		if traced && c.delta.pruned1 > 0 {
			o.Event(obs.EvPrune, describeUnit(c.unit), "pruning1", 0)
		}
	}

	for _, u := range c.produced {
		if u.kind == kindMetaInsight {
			// Identity dedup and Pruning 2 are commit-time decisions so the
			// first unit in canonical order wins, independent of which
			// worker raced where.
			if m.seenMI[u.miKey] {
				o.Count("miner.dedup", 1)
				if traced {
					o.Event(obs.EvDedup, u.miKey, "", 0)
				}
				continue
			}
			m.seenMI[u.miKey] = true
			if m.cfg.EnablePruning2 && minClamp(u.impactHDS) < m.cfg.MinImpact {
				m.stats.Pruned2++
				o.Count("miner.pruned2", 1)
				if traced {
					o.Event(obs.EvPrune, u.miKey, "pruning2", 0)
				}
				continue
			}
			if m.sstarCut(u) {
				// Emission-time S* cut: the candidate is dead on arrival
				// against the current top K, so it never enters the queue.
				m.stats.SStarCut++
				o.Count("miner.sstar_cut", 1)
				if traced {
					o.Event(obs.EvPrune, u.miKey, "sstar", 0)
				}
				continue
			}
			m.stats.EmittedMIUnits++
			m.seq++
			u.seq = m.seq
			miQ.Push(u)
			continue
		}
		m.seq++
		u.seq = m.seq
		patternQ.Push(u)
	}

	if c.mi != nil {
		if _, exists := m.results[c.mi.Key()]; !exists {
			m.results[c.mi.Key()] = c.mi
			m.recordTopScore(c.mi.Score)
			o.Count("miner.stored", 1)
			if traced {
				o.Event(obs.EvStore, c.mi.Key(), fmt.Sprintf("score=%.6f", c.mi.Score), 0)
			}
			if m.cfg.OnMetaInsight != nil {
				m.cfg.OnMetaInsight(c.mi)
			}
		}
	}

	if o != nil {
		o.Observe("miner.commit.cost_units", commitCostBounds, m.acct.cost-costBefore)
		o.Phase(obs.PhaseCommit, time.Since(t0))
	}
}

// describeUnit renders a compact, deterministic trace label for a unit.
func describeUnit(u *workUnit) string {
	switch u.kind {
	case kindExpand:
		return u.subspace.Key()
	case kindDataPattern:
		return u.subspace.Key() + "|" + u.breakdown
	case kindMetaInsight:
		return u.miKey
	default:
		return "?"
	}
}

func (m *Miner) newQueue() workQueue {
	if m.cfg.UsePriorityQueues {
		return newPriorityQueue()
	}
	return newFIFOQueue()
}

// pushRoot seeds the search with the empty-subspace expansion unit.
func (m *Miner) pushRoot(patternQ workQueue) {
	patternQ.Push(&workUnit{
		kind:      kindExpand,
		priority:  1,
		subspace:  model.EmptySubspace,
		impact:    1,
		maxDimIdx: -1,
	})
}

func (m *Miner) finish() *Result {
	out := make([]*core.MetaInsight, 0, len(m.results))
	for _, mi := range m.results {
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key() < out[j].Key()
	})
	meter := m.eng.Meter()
	m.stats.ExecutedQueries = meter.ExecutedQueries()
	m.stats.AugmentedQueries = meter.AugmentedQueries()
	m.stats.CacheServed = meter.ServedQueries()
	m.stats.CostUsed = meter.Cost()
	m.stats.PrefetchFailures = m.acct.prefetchFailures
	m.stats.FailedUnits = m.acct.failedUnits
	m.stats.Retries = m.acct.retries
	m.stats.BreakerTrips = m.acct.breakerTrips
	m.stats.Evictions = m.acct.evictions
	m.stats.QueryCacheStats = m.acct.queryStats()
	m.stats.PatternCacheStats = m.acct.patternStats()
	var runErr error
	if m.stats.FailedUnits > 0 {
		attempted := m.stats.ExecutedQueries + m.stats.CacheServed + m.stats.FailedUnits
		rate := float64(m.stats.FailedUnits) / float64(attempted)
		if rate > m.cfg.DegradedThreshold {
			runErr = fmt.Errorf("%w: %d of %d queries failed (%.1f%% > %.1f%%)",
				ErrDegraded, m.stats.FailedUnits, attempted,
				100*rate, 100*m.cfg.DegradedThreshold)
		}
	}
	if m.ckErr != nil {
		// errors.Join keeps both matchable with errors.Is; the MetaInsights
		// remain valid best-effort output either way.
		runErr = errors.Join(m.ckErr, runErr)
	}
	if o := m.cfg.Observer; o != nil {
		// End-of-run gauges carry the canonical (worker-count-invariant)
		// accounting; the live counters above track progressive commit-side
		// progress and the engine.physical.* counters real machine work.
		o.SetGauge("miner.cost_used", m.stats.CostUsed)
		o.SetGauge("miner.queries.executed", float64(m.stats.ExecutedQueries))
		o.SetGauge("miner.queries.augmented", float64(m.stats.AugmentedQueries))
		o.SetGauge("miner.queries.cache_served", float64(m.stats.CacheServed))
		o.SetGauge("miner.prefetch.failures", float64(m.stats.PrefetchFailures))
		o.SetGauge("miner.queries.failed", float64(m.stats.FailedUnits))
		o.SetGauge("miner.queries.retries", float64(m.stats.Retries))
		o.SetGauge("miner.breaker.trips", float64(m.stats.BreakerTrips))
		o.SetGauge("miner.cache.evictions", float64(m.stats.Evictions))
		o.SetGauge("miner.qcache.hit_rate", m.stats.QueryCacheStats.HitRate())
		o.SetGauge("miner.qcache.entries", float64(m.stats.QueryCacheStats.Entries))
		o.SetGauge("miner.qcache.bytes", float64(m.stats.QueryCacheStats.Bytes))
		o.SetGauge("miner.pcache.hit_rate", m.stats.PatternCacheStats.HitRate())
		o.SetGauge("miner.pcache.entries", float64(m.stats.PatternCacheStats.Entries))
	}
	return &Result{MetaInsights: out, Stats: m.stats, Err: runErr}
}

// safeProcess runs process under a recover barrier: a panicking pattern
// evaluator (e.g. an unregistered custom type) takes down one unit, not the
// process. The recovered completion is fresh — whatever partial events or
// children process accumulated are discarded, so the commit is a pure
// function of the unit — and carries only the kind counter plus the panic
// value. Panics are deterministic (pure functions of unit + data; the
// single-flight groups propagate the leader's panic to every follower), so
// the same units panic at every worker count.
func (m *Miner) safeProcess(u *workUnit) (c *completion) {
	defer func() {
		if r := recover(); r != nil {
			c = &completion{unit: u, panicked: true, panicVal: panicLabel(r)}
			switch u.kind {
			case kindExpand:
				c.delta.expandUnits++
			case kindDataPattern:
				c.delta.dataPatternUnits++
			case kindMetaInsight:
				c.delta.metaInsightUnits++
			}
		}
	}()
	return m.process(u)
}

// panicLabel renders a panic value as a bounded trace detail. Values that
// stringify pointers are not stable across processes; tests and evaluators
// should panic with strings or errors when the label matters.
func panicLabel(r any) string {
	s := fmt.Sprint(r)
	const maxLen = 256
	if len(s) > maxLen {
		s = s[:maxLen] + "..."
	}
	return s
}

// process executes one compute unit speculatively: pure data work plus a
// recording of the usage it performed. It runs on a worker goroutine and
// touches no dispatcher-owned state.
func (m *Miner) process(u *workUnit) *completion {
	c := &completion{unit: u}
	rec := &recorder{}
	switch u.kind {
	case kindExpand:
		c.delta.expandUnits++
		c.produced = m.processExpand(u, rec, &c.delta)
	case kindDataPattern:
		c.delta.dataPatternUnits++
		c.produced = m.processDataPattern(u, rec, &c.delta)
	case kindMetaInsight:
		c.delta.metaInsightUnits++
		c.mi = m.processMetaInsight(u, rec, &c.delta)
	default:
		panic("miner: unknown unit kind")
	}
	c.events = rec.events
	return c
}

// processExpand emits the data-pattern compute units for a subspace and, if
// the subspace is not at maximum depth, its child subspaces with their
// impacts (computed from one group-by unit per expandable dimension — the
// same units the data-pattern module will need, so the scans are shared
// through the query cache).
func (m *Miner) processExpand(u *workUnit, rec *recorder, delta *statDelta) []*workUnit {
	tab := m.eng.Table()
	var produced []*workUnit

	for _, dim := range tab.DimensionNames() {
		if u.subspace.Has(dim) {
			continue
		}
		col := tab.Dimension(dim)
		if col.Cardinality() < 3 {
			continue // too few groups for any pattern criterion
		}
		if m.cfg.MaxBreakdownCardinality > 0 && col.Cardinality() > m.cfg.MaxBreakdownCardinality {
			continue
		}
		produced = append(produced, &workUnit{
			kind:      kindDataPattern,
			priority:  u.impact,
			subspace:  u.subspace,
			impact:    u.impact,
			breakdown: dim,
		})
	}

	if u.subspace.Len() >= m.cfg.MaxSubspaceFilters {
		return produced
	}
	dims := tab.Dimensions()
	for idx := u.maxDimIdx + 1; idx < len(dims); idx++ {
		if m.stopping.Load() {
			break
		}
		dim := dims[idx]
		if u.subspace.Has(dim.Name) {
			continue
		}
		if m.cfg.MaxBreakdownCardinality > 0 && dim.Cardinality() > m.cfg.MaxBreakdownCardinality {
			continue
		}
		if m.cfg.EnableBoundPruning && m.cfg.MinSubspaceImpact > 0 &&
			m.eng.DimMaxImpactShare(dim.Name) < m.cfg.MinSubspaceImpact {
			// Even the dimension's heaviest value cannot reach the frontier
			// threshold, so every child this scan could produce would be
			// filtered below: skip the group-by entirely.
			delta.boundScanSkips++
			continue
		}
		unit, err := m.eng.MaterializeUnit(u.subspace, dim.Name)
		if err != nil {
			// Skipped-but-accounted: the child subspaces behind this group-by
			// are not explored, but the failed query is charged canonically.
			rec.recordUnitFail(cache.UnitKey{Subspace: u.subspace.Key(), Breakdown: dim.Name},
				m.eng.ScanCost(u.subspace))
			continue
		}
		rec.recordUnit(unit, m.eng.ScanCost(u.subspace))
		childImpacts := m.unitImpacts(unit)
		for gi, v := range unit.GroupKeys {
			imp := childImpacts[gi]
			if imp < m.cfg.MinSubspaceImpact {
				continue
			}
			produced = append(produced, &workUnit{
				kind:      kindExpand,
				priority:  imp,
				subspace:  u.subspace.With(dim.Name, v),
				impact:    imp,
				maxDimIdx: idx,
			})
		}
	}
	return produced
}

// unitImpacts returns the impact of each group's child subspace, using the
// additive impact measure's per-group values from the unit.
func (m *Miner) unitImpacts(u *cache.Unit) []float64 {
	im := m.eng.ImpactMeasure()
	total := m.eng.TotalImpact()
	out := make([]float64, len(u.GroupKeys))
	var src []float64
	if im.Agg == model.AggCount {
		src = u.Counts
	} else {
		src = u.Sums[im.Column]
	}
	for i, v := range src {
		out[i] = v / total
	}
	return out
}

// processDataPattern evaluates every measure and pattern type on one
// (subspace, breakdown) scope family and emits MetaInsight compute-unit
// candidates for each discovered basic data pattern (pattern-guided mining,
// Figure 4). Candidate dedup and Pruning 2 happen at commit time.
func (m *Miner) processDataPattern(u *workUnit, rec *recorder, delta *statDelta) []*workUnit {
	tab := m.eng.Table()
	bcol := tab.Dimension(u.breakdown)
	temporal := bcol.Kind == model.KindTemporal

	// One unit fetch serves every measure of the scope family (the cache
	// unit spans all measures, Figure 5).
	unit, err := m.eng.MaterializeUnit(u.subspace, u.breakdown)
	if err != nil {
		rec.recordUnitFail(cache.UnitKey{Subspace: u.subspace.Key(), Breakdown: u.breakdown},
			m.eng.ScanCost(u.subspace))
		return nil
	}
	rec.recordUnit(unit, m.eng.ScanCost(u.subspace))
	var produced []*workUnit
	for _, meas := range m.eng.Measures() {
		ds := model.DataScope{Subspace: u.subspace, Breakdown: u.breakdown, Measure: meas}
		series, err := engine.Extract(unit, ds)
		if err != nil {
			// Structural extraction failure (e.g. unknown measure column) —
			// counted separately from ordinary data sparsity.
			delta.extractErrors++
			continue
		}
		if series.Len() < 3 {
			delta.shortSeriesSkips++
			continue
		}
		se := m.evaluateScope(rec, ds, series, temporal)
		for _, t := range se.ValidTypes() {
			delta.patternsFound++
			produced = append(produced, m.emitMetaInsightUnits(rec, ds, t, u.impact, delta)...)
		}
	}
	return produced
}

// evaluateScope runs (or recalls) the all-types evaluation of one data scope
// through the pattern cache, recording the evaluation for canonical
// accounting. Concurrent evaluations of the same scope single-flight.
func (m *Miner) evaluateScope(rec *recorder, ds model.DataScope, series *engine.Series, temporal bool) *pattern.ScopeEvaluation {
	key := ds.Key()
	se := m.pcache.Materialize(key, func() *pattern.ScopeEvaluation {
		return pattern.EvaluateAllScoped(ds, series.Keys, series.Values, temporal, m.cfg.Pattern)
	})
	// Recorded after materialization so a byte-bounded pattern cache can
	// carry the evaluation's size into the commit-order eviction simulation
	// (SizeOf is 0 — and unused — when the cache is unbounded).
	rec.recordEval(key, m.pcache.SizeOf(key, se))
	return se
}

// emitMetaInsightUnits applies the three extension strategies to a
// discovered basic data pattern dp = (ds, t, ·) and returns one MetaInsight
// compute-unit candidate per resulting HDS. Deduplication across anchors and
// Pruning 2 are applied by the dispatcher at commit time, so candidate
// filtering is deterministic in commit order.
func (m *Miner) emitMetaInsightUnits(rec *recorder, ds model.DataScope, t pattern.Type, impactS float64, delta *statDelta) []*workUnit {
	tab := m.eng.Table()
	var produced []*workUnit

	emit := func(hds core.HDS, impactHDS float64) {
		if len(hds.Scopes) < 2 {
			return
		}
		produced = append(produced, &workUnit{
			kind:      kindMetaInsight,
			priority:  impactHDS,
			hds:       hds,
			ptype:     t,
			impactHDS: impactHDS,
			miKey:     hds.Key() + "|" + t.String(),
		})
	}

	// Subspace extending: one HDS per non-empty filter of ds.Subspace.
	for _, f := range ds.Subspace {
		col := tab.Dimension(f.Dim)
		if col == nil || col.Cardinality() < 2 {
			continue
		}
		hds := core.SubspaceHDS(ds, f.Dim, col.Domain())
		if m.cfg.EnableBoundPruning && m.cfg.EnablePruning2 && m.cfg.MinImpact > 0 &&
			m.eng.ImpactShareUpperBound(hds.RootSubspace()) < m.cfg.MinImpact {
			// The HDS impact (the root subspace's true impact) cannot reach
			// MinImpact, so Pruning 2 would discard this candidate at commit:
			// cut it here, before the root-impact query is ever issued.
			delta.boundSkips++
			continue
		}
		// Impact_HDS = Impact(subspace without the extended filter), by
		// additivity of the impact measure over the sibling group.
		rootImpact, probe, err := m.eng.ImpactUnmetered(hds.RootSubspace())
		if probe != nil {
			// Recorded even on failure: the replay recomputes the fallback
			// scan's fate from its fingerprint and charges the failed attempts.
			rec.recordImpact(probe)
		}
		if err != nil {
			continue
		}
		emit(hds, rootImpact)
	}

	// Measure extending.
	if ms := m.eng.Measures(); len(ms) >= 2 {
		hds := core.MeasureHDS(ds, ms)
		emit(hds, float64(len(ms))*impactS)
	}

	// Breakdown extending: only from a temporal anchor breakdown, across all
	// temporal dimensions.
	if tab.Dimension(ds.Breakdown).Kind == model.KindTemporal {
		hds := core.BreakdownHDS(ds, tab.TemporalDimensions())
		emit(hds, float64(len(hds.Scopes))*impactS)
	}
	return produced
}

func minClamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// processMetaInsight evaluates one HDP and returns the resulting
// MetaInsight, if any. Subspace-extended HDSs are prefetched with one
// augmented query when the query cache is enabled; a failed prefetch falls
// back to per-sibling basic queries (counted in Stats.PrefetchFailures).
// Pruning 1 aborts the evaluation as soon as no commonness can reach τ.
func (m *Miner) processMetaInsight(u *workUnit, rec *recorder, delta *statDelta) *core.MetaInsight {
	tab := m.eng.Table()

	if u.hds.Kind == model.ExtendSubspace && m.eng.QueryCache().Enabled() {
		m.prefetchSiblings(u, rec)
	}

	n := len(u.hds.Scopes)
	patterns := make([]core.DataPattern, 0, n)
	classCounts := make(map[string]int)
	best := 0
	tau := m.cfg.Score.Tau

	for j, scope := range u.hds.Scopes {
		if m.stopping.Load() {
			return nil
		}
		if err := tab.Validate(scope); err != nil {
			continue
		}
		unit, err := m.eng.MaterializeUnit(scope.Subspace, scope.Breakdown)
		if err != nil {
			// Failed sibling query: the scope drops out of the HDP (best
			// effort) and the failure is charged canonically at commit.
			rec.recordUnitFail(cache.UnitKey{Subspace: scope.Subspace.Key(), Breakdown: scope.Breakdown},
				m.eng.ScanCost(scope.Subspace))
			continue
		}
		rec.recordUnit(unit, m.eng.ScanCost(scope.Subspace))
		series, err := engine.Extract(unit, scope)
		if err != nil {
			delta.extractErrors++
			continue
		}
		if series.Len() < 3 {
			// Empty or degenerate sibling: not part of the HDP.
			delta.shortSeriesSkips++
			continue
		}
		temporal := tab.Dimension(scope.Breakdown).Kind == model.KindTemporal
		se := m.evaluateScope(rec, scope, series, temporal)
		t, h := se.Induced(u.ptype)
		patterns = append(patterns, core.DataPattern{Scope: scope, Type: t, Highlight: h})
		if t == u.ptype {
			k := h.Key()
			classCounts[k]++
			if classCounts[k] > best {
				best = classCounts[k]
			}
		}
		if m.cfg.EnablePruning1 {
			remaining := n - j - 1
			// Even if every remaining scope joined the largest class, its
			// ratio could not exceed τ: terminate (Pruning 1). The bound
			// uses the evaluated pattern count rather than the nominal HDS
			// size, so scopes that turned out empty cannot cause a valid
			// MetaInsight to be pruned.
			if float64(best+remaining) <= tau*float64(len(patterns)+remaining) {
				delta.pruned1++
				return nil
			}
		}
	}
	if len(patterns) < 2 {
		return nil
	}
	hdp := &core.HDP{HDS: u.hds, Type: u.ptype, Patterns: patterns}
	mi, ok := core.BuildMetaInsight(hdp, u.impactHDS, m.cfg.Score)
	if !ok {
		return nil
	}
	return mi
}

// prefetchSiblings records (and, if the physical cache lacks any sibling,
// executes) the augmented-query prefetch for a subspace-extending HDS. One
// augmented scan populates the entire sibling group SG(anchor, ExtDim).
// Whether the canonical run pays for the scan is decided at commit time by
// replaying the recorded decision against the simulated cache.
func (m *Miner) prefetchSiblings(u *workUnit, rec *recorder) {
	qc := m.eng.QueryCache()
	scopes := make([]cache.UnitKey, len(u.hds.Scopes))
	// Under a byte-bounded physical cache the peek shortcut below would
	// record a sibling list shaped by timing-dependent physical evictions
	// (an entry can vanish between the check and the reconstruction), so the
	// recorded usage would vary with worker interleaving. Recording must be
	// pure: always take the scan path, whose sibling list is a function of
	// the data alone. The extra physical scans are the normal price of a
	// bounded cache; the canonical accounting is unaffected.
	allCached := qc.MaxBytes() == 0
	for i, scope := range u.hds.Scopes {
		scopes[i] = cache.UnitKey{Subspace: scope.Subspace.Key(), Breakdown: scope.Breakdown}
		if allCached {
			if _, ok := qc.Peek(scopes[i].Subspace, scopes[i].Breakdown); !ok {
				allCached = false
			}
		}
	}
	base := u.hds.Anchor.Subspace.Without(u.hds.ExtDim)
	use := &siblingUse{
		scopes: scopes,
		fp:     engine.AugmentedFingerprint(base.Key(), u.hds.Anchor.Breakdown, u.hds.ExtDim),
		cost:   m.eng.ScanCost(base),
	}
	if allCached {
		// Physically nothing to fetch; reconstruct the scan's sibling list
		// (the non-empty scope units) from the cache so the commit-time
		// replay can populate its simulation if it decides the prefetch
		// fires there.
		for _, k := range scopes {
			if unit, ok := qc.Peek(k.Subspace, k.Breakdown); ok && len(unit.GroupKeys) > 0 {
				use.siblings = append(use.siblings, unitUse{key: k, bytes: unit.ApproxBytes()})
			}
		}
	} else if units, err := m.eng.MaterializeAugmented(u.hds.Anchor, u.hds.ExtDim); err != nil {
		use.failed = true
	} else {
		for _, unit := range units {
			use.siblings = append(use.siblings, unitUse{key: unit.Key, bytes: unit.ApproxBytes()})
		}
	}
	// The scan returns a map; the replay stores siblings in recorded order,
	// which a byte-bounded simulated cache observes through its FIFO eviction
	// queue. Sort so the recorded order is a pure function of the keys.
	sort.Slice(use.siblings, func(i, j int) bool {
		a, b := use.siblings[i].key, use.siblings[j].key
		if a.Subspace != b.Subspace {
			return a.Subspace < b.Subspace
		}
		return a.Breakdown < b.Breakdown
	})
	rec.recordSiblings(use)
}

package metainsight_test

// Tests of the Session/Request API: session reuse is hermetic (every Analyze
// call bit-identical to the same call on a fresh session), every Request
// field is honoured, multi-morsel scans are bit-identical at any scan
// parallelism, and conflicting settings fail with typed errors.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/engine"
	"metainsight/internal/model"
)

// fracTable builds a fractional-valued table: bit-identity failures in the
// float merge order show up here, where integer-valued data would hide them.
func fracTable(t *testing.T, rows int) *metainsight.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	header := []string{"Region", "Channel", "Month", "Revenue", "Margin"}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun"}
	records := make([][]string, rows)
	for i := range records {
		records[i] = []string{
			fmt.Sprintf("r%d", r.Intn(7)),
			fmt.Sprintf("c%d", r.Intn(5)),
			months[r.Intn(len(months))],
			strconv.FormatFloat(r.NormFloat64()*1e3, 'f', -1, 64),
			strconv.FormatFloat(r.NormFloat64(), 'f', -1, 64),
		}
	}
	tab, err := metainsight.FromRecords("frac", header, records)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// runFacts is one run's comparable outcome: result keys, ranked narrative
// and statistics (query-cache bytes zeroed; sizes are reporting-only
// best-effort when the cache is unbounded).
type runFacts struct {
	keys  map[string]bool
	desc  []string
	stats metainsight.MiningStats
}

func factsOf(res *metainsight.MiningResult, ins []*metainsight.Insight) runFacts {
	st := res.Stats
	st.QueryCacheStats.Bytes = 0
	desc := make([]string, len(ins))
	for i, in := range ins {
		desc[i] = in.String()
	}
	keys := make(map[string]bool, len(res.MetaInsights))
	for _, mi := range res.MetaInsights {
		keys[mi.Key()] = true
	}
	return runFacts{keys: keys, desc: desc, stats: st}
}

func requireSameFacts(t *testing.T, label string, want, got runFacts) {
	t.Helper()
	if got.stats != want.stats {
		t.Fatalf("%s: stats differ:\n want %+v\n got  %+v", label, want.stats, got.stats)
	}
	if len(got.keys) != len(want.keys) {
		t.Fatalf("%s: %d results, want %d", label, len(got.keys), len(want.keys))
	}
	for k := range want.keys {
		if !got.keys[k] {
			t.Fatalf("%s: missing result %q", label, k)
		}
	}
	if len(got.desc) != len(want.desc) {
		t.Fatalf("%s: %d ranked insights, want %d", label, len(got.desc), len(want.desc))
	}
	for i := range want.desc {
		if got.desc[i] != want.desc[i] {
			t.Fatalf("%s: ranked insight %d differs:\n want %s\n got  %s", label, i, want.desc[i], got.desc[i])
		}
	}
}

// TestSessionReuseBitIdentical is the Session contract: two sequential
// Analyze calls on one session each produce exactly what the same call on a
// fresh session produces — reuse shares indexes and substrates, not caches
// or meters.
func TestSessionReuseBitIdentical(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	req := metainsight.Request{TopK: 5, Measures: sales}
	an := analyze(t, tab, req)
	fresh := factsOf(an.Result, an.Insights)
	if len(fresh.keys) == 0 {
		t.Fatal("fresh session mined nothing")
	}

	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		an, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameFacts(t, fmt.Sprintf("session call %d", call), fresh, factsOf(an.Result, an.Insights))
	}
}

// TestSessionMorselGridBitIdentical is the mining-level differential of
// morsel-parallel scans: on fractional data split into many 64-row morsels,
// every (workers, scan-parallelism) cell produces bit-identical results,
// statistics and costs — the morsel reorder window makes the floating-point
// addition tree a function of the morsel grid only. Mined facts barely
// depend on the last bits of a sum, so single-worker runs also compare every
// unit they scanned, encoded exactly. (Whether a unit is first materialized
// by its own scan or by an augmented prefetch depends on the worker count
// and scheduling, and the two cut a filtered scan's rows into morsels
// differently, so physical unit bits are compared at one worker only.)
func TestSessionMorselGridBitIdentical(t *testing.T) {
	tab := fracTable(t, 1400)
	run := func(workers, par int) (runFacts, map[cache.UnitKey]string) {
		an := analyze(t, tab, metainsight.Request{
			TopK:     5,
			Measures: []metainsight.Measure{metainsight.Sum("Revenue"), metainsight.Sum("Margin")},
		},
			metainsight.WithWorkers(workers),
			metainsight.WithSubstrate(engine.NewColumnarSubstrate(tab,
				engine.WithMorselSize(64), engine.WithScanParallelism(par))))
		return factsOf(an.Result, an.Insights), scannedUnits(t, an)
	}
	base, baseUnits := run(1, 1)
	if len(base.keys) == 0 || len(baseUnits) == 0 {
		t.Fatal("baseline mined nothing")
	}
	for _, workers := range []int{1, 4} {
		for _, par := range []int{1, 2, 4} {
			label := fmt.Sprintf("morsel=64 workers=%d par=%d", workers, par)
			facts, units := run(workers, par)
			requireSameFacts(t, label, base, facts)
			if workers > 1 {
				continue
			}
			requireSameUnits(t, label, baseUnits, units)
		}
	}
}

// scannedUnits encodes every unit in the call's query cache exactly (the
// shortest float encoding is bit-exact).
func scannedUnits(t *testing.T, an *metainsight.Analysis) map[cache.UnitKey]string {
	t.Helper()
	qc := an.Engine().QueryCache()
	units := make(map[cache.UnitKey]string)
	for k := range qc.Snapshot() {
		u, _ := qc.Peek(k.Subspace, k.Breakdown)
		enc, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		units[k] = string(enc)
	}
	return units
}

func requireSameUnits(t *testing.T, label string, want, got map[cache.UnitKey]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scanned units, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Fatalf("%s: unit %v differs:\n want %s\n got  %s", label, k, w, g)
		}
	}
}

// TestSessionMinMaxSubstrateMatchesEngine: a session builds its scan
// substrate itself (to share it across calls), so it must materialize
// exactly the MIN/MAX columns engine.New would. A MIN/MAX request plus a
// correlation pair whose secondary measure is a MAX over a column nothing
// else aggregates must run bit-identically — results, statistics and every
// scanned unit — to the same request over the substrate engine.New derives
// from the same measures.
func TestSessionMinMaxSubstrateMatchesEngine(t *testing.T) {
	tab := fracTable(t, 600)
	pair := [2]metainsight.Measure{metainsight.Min("Revenue"), metainsight.Max("Margin")}
	req := metainsight.Request{
		TopK:     5,
		Measures: []metainsight.Measure{metainsight.Min("Revenue"), metainsight.Max("Revenue")},
	}
	eng, err := engine.New(tab, engine.Config{Measures: req.Measures, ExtraMeasures: pair[:]})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...metainsight.Option) (runFacts, map[cache.UnitKey]string) {
		opts = append(opts, metainsight.WithCorrelationPatterns(pair), metainsight.WithWorkers(1))
		an := analyze(t, tab, req, opts...)
		return factsOf(an.Result, an.Insights), scannedUnits(t, an)
	}
	want, wantUnits := run(metainsight.WithSubstrate(eng.Substrate()))
	if len(want.keys) == 0 {
		t.Fatal("reference run mined nothing")
	}
	if want.stats.FailedUnits != 0 {
		t.Fatalf("reference run failed %d units", want.stats.FailedUnits)
	}
	got, gotUnits := run()
	requireSameFacts(t, "session substrate", want, got)
	requireSameUnits(t, "session substrate", wantUnits, gotUnits)
}

// TestRequestFieldsHonoured checks every per-call Request field: set to a
// non-default value it changes what it governs (statistics, mined insights,
// callbacks or the metrics snapshot); set to its documented default the
// call is bit-identical to Request{}.
func TestRequestFieldsHonoured(t *testing.T) {
	tab := fracTable(t, 600)
	type outcome struct {
		facts runFacts
		mined string
		snap  metainsight.MetricsSnapshot
	}
	run := func(req metainsight.Request) outcome {
		an := analyze(t, tab, req, metainsight.WithWorkers(1))
		return outcome{factsOf(an.Result, an.Insights), mineJSON(t, an.Result), an.Snapshot()}
	}
	sameAs := func(t *testing.T, label string, want, got outcome) {
		t.Helper()
		requireSameFacts(t, label, want.facts, got.facts)
		if got.mined != want.mined {
			t.Fatalf("%s: mined MetaInsights differ", label)
		}
	}
	statsDiffer := func(t *testing.T, base, got outcome) {
		t.Helper()
		if got.facts.stats == base.facts.stats {
			t.Fatalf("statistics unchanged: %+v", got.facts.stats)
		}
	}
	var progressCalls int
	base := run(metainsight.Request{TopK: 5})
	if len(base.facts.keys) == 0 {
		t.Fatal("Request{} mined nothing")
	}
	cases := []struct {
		name     string
		set, def metainsight.Request
		changed  func(t *testing.T, base, got outcome)
	}{
		{"Measures",
			metainsight.Request{Measures: []metainsight.Measure{metainsight.Sum("Revenue")}},
			metainsight.Request{Measures: tab.DefaultMeasures()},
			statsDiffer},
		{"ImpactMeasure",
			metainsight.Request{ImpactMeasure: metainsight.Sum("Revenue")},
			metainsight.Request{ImpactMeasure: metainsight.Count("*")},
			statsDiffer},
		{"MaxFilters",
			metainsight.Request{MaxFilters: 1},
			metainsight.Request{MaxFilters: 3},
			statsDiffer},
		{"Budget.Cost",
			metainsight.Request{Budget: metainsight.Budget{Cost: 30}},
			metainsight.Request{Budget: metainsight.Budget{Cost: 0}},
			func(t *testing.T, base, got outcome) {
				t.Helper()
				if got.facts.stats.CostUsed >= base.facts.stats.CostUsed {
					t.Fatalf("cost budget 30 used %v, unbudgeted run %v",
						got.facts.stats.CostUsed, base.facts.stats.CostUsed)
				}
			}},
		{"Budget.Time",
			metainsight.Request{Budget: metainsight.Budget{Time: time.Nanosecond}},
			metainsight.Request{Budget: metainsight.Budget{Time: 0}},
			func(t *testing.T, base, got outcome) {
				t.Helper()
				if got.facts.stats.CostUsed >= base.facts.stats.CostUsed {
					t.Fatalf("time budget 1ns used cost %v, unbudgeted run %v",
						got.facts.stats.CostUsed, base.facts.stats.CostUsed)
				}
			}},
		{"Tau",
			metainsight.Request{Tau: 0.9},
			metainsight.Request{Tau: 0.5},
			statsDiffer},
		{"TopKPruning",
			metainsight.Request{TopKPruning: 1},
			metainsight.Request{TopKPruning: 0},
			func(t *testing.T, base, got outcome) {
				t.Helper()
				if got.facts.stats.SStarCut == 0 {
					t.Fatalf("TopKPruning 1 cut nothing: %+v", got.facts.stats)
				}
			}},
		{"Progress",
			metainsight.Request{Progress: func(*metainsight.MetaInsight) { progressCalls++ }},
			metainsight.Request{Progress: nil},
			func(t *testing.T, base, got outcome) {
				t.Helper()
				sameAs(t, "Progress set", base, got)
				if progressCalls != len(got.facts.keys) {
					t.Fatalf("Progress called %d times for %d MetaInsights", progressCalls, len(got.facts.keys))
				}
			}},
		{"Observer",
			metainsight.Request{Observer: metainsight.NewObserver(metainsight.ObserverOptions{})},
			metainsight.Request{Observer: nil},
			func(t *testing.T, base, got outcome) {
				t.Helper()
				sameAs(t, "Observer set", base, got)
				if len(base.snap.Gauges) != 0 || got.snap.Gauges["engine.cost_units"] <= 0 {
					t.Fatalf("snapshot gauges: without observer %d, with observer cost_units %v",
						len(base.snap.Gauges), got.snap.Gauges["engine.cost_units"])
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.set.TopK, tc.def.TopK = 5, 5
			tc.changed(t, base, run(tc.set))
			sameAs(t, "default "+tc.name, base, run(tc.def))
		})
	}

	s, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		req  metainsight.Request
		want error
	}{
		{metainsight.Request{Budget: metainsight.Budget{Time: time.Second, Cost: 10}}, metainsight.ErrConflictingBudgets},
		{metainsight.Request{TopKPruning: -1}, metainsight.ErrInvalidTopKPruning},
	} {
		if _, err := s.Analyze(context.Background(), bad.req); !errors.Is(err, bad.want) {
			t.Errorf("Analyze(%+v): err = %v, want %v", bad.req, err, bad.want)
		}
	}
}

// stubSubstrate is a do-nothing Substrate for the conflict-validation test.
type stubSubstrate struct{}

func (stubSubstrate) ScanUnit(model.Subspace, string) (*cache.Unit, int, error) {
	return nil, 0, errors.New("stub")
}

func (stubSubstrate) ScanAugmented(model.Subspace, string, string) (map[string]*cache.Unit, int, error) {
	return nil, 0, errors.New("stub")
}

// TestConstructionValidation checks that conflicting or malformed settings
// are rejected with the typed errors: options by NewSession, Request fields
// by Analyze.
func TestConstructionValidation(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []metainsight.Option
		req  metainsight.Request
		want error
	}{
		{"budgets", nil, metainsight.Request{
			Budget: metainsight.Budget{Time: time.Second, Cost: 10},
		}, metainsight.ErrConflictingBudgets},
		{"topk negative", nil, metainsight.Request{TopKPruning: -3}, metainsight.ErrInvalidTopKPruning},
		{"negative workers", []metainsight.Option{
			metainsight.WithWorkers(-1),
		}, metainsight.Request{}, metainsight.ErrNegativeOption},
		{"negative scan parallelism", []metainsight.Option{
			metainsight.WithScanParallelism(-2),
		}, metainsight.Request{}, metainsight.ErrNegativeOption},
		{"negative cache bytes", []metainsight.Option{
			metainsight.WithCacheBytes(-1, 0),
		}, metainsight.Request{}, metainsight.ErrNegativeOption},
		{"checkpoint dirs", []metainsight.Option{
			metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: "/tmp/ck-a"}),
			metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: "/tmp/ck-b", Resume: true}),
		}, metainsight.Request{}, metainsight.ErrConflictingCheckpoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := metainsight.NewSession(tab, tc.opts...)
			if err == nil {
				_, err = s.Analyze(context.Background(), tc.req)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// Resuming into the directory a fresh config names is not a conflict.
	dir := t.TempDir()
	if _, err := metainsight.NewSession(tab,
		metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: dir, Every: 16}),
		metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: dir, Resume: true})); err != nil {
		t.Errorf("same-directory checkpoint+resume rejected: %v", err)
	}
}

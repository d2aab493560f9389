// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per table/figure; see DESIGN.md's experiment index and
// cmd/experiments for the printing runner), plus micro-benchmarks of the
// engine, evaluators, miner and ranker, and ablation benches for the design
// choices DESIGN.md calls out.
package metainsight_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/experiments"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/obs"
	"metainsight/internal/pattern"
	"metainsight/internal/quickinsight"
	"metainsight/internal/ranker"
	"metainsight/internal/workload"
)

// ---------------------------------------------------------------- figures

// BenchmarkFigure6 regenerates the mining-efficiency ablation curves
// (precision vs budget under full functionality / w-o pattern cache /
// w-o query cache / FIFO queue) on the four large datasets.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(io.Discard)
	}
}

// BenchmarkFigure7 regenerates the QuickInsight-vs-MetaInsight query-count
// comparison over the 35-dataset suite.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard)
	}
}

// BenchmarkTable3 regenerates the cache statistics over the 35-dataset
// suite.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

// BenchmarkTable4 regenerates the ranking-optimality comparison (exact
// baseline vs greedy vs rank-by-score) on the four large datasets.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard)
	}
}

// BenchmarkTable5 regenerates the user-study dataset descriptions.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard)
	}
}

// BenchmarkFigure8 regenerates the simulated user-study statistics.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(io.Discard, 20210620)
	}
}

// BenchmarkFigure12 regenerates the τ-sensitivity curves.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure12(io.Discard)
	}
}

// BenchmarkICubeComparison regenerates the Appendix 9.2 i³ analysis.
func BenchmarkICubeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ICubeComparison(io.Discard, 100)
	}
}

// BenchmarkMineEndToEnd measures a full cost-budgeted mining run (mine +
// rank) end to end at scan parallelism 1 and 4. Results are bit-identical
// across the two (the morsel pipeline's invariance); only wall-clock may
// differ.
func BenchmarkMineEndToEnd(b *testing.B) {
	tab := workload.CreditCard()
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := metainsight.NewSession(tab, metainsight.WithScanParallelism(par))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Analyze(context.Background(), metainsight.Request{
					TopK:   10,
					Budget: metainsight.Budget{Cost: 400},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------- components

func benchEngine(b *testing.B, tab *dataset.Table) *engine.Engine {
	b.Helper()
	eng, err := engine.New(tab, engine.Config{QueryCache: cache.NewQueryCache(false)})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkBasicQueryScan measures one uncached filtered group-by scan over
// the 116k-row Hotel Booking table.
func BenchmarkBasicQueryScan(b *testing.B) {
	tab := workload.HotelBooking()
	eng := benchEngine(b, tab)
	ds := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "Channel", Value: "Web"}),
		Breakdown: "Month",
		Measure:   model.Sum("Bookings"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BasicQuery(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tab.Rows()))
}

// BenchmarkAugmentedQueryScan measures the single-scan augmented query that
// prefetches a whole sibling group, amortizing one scan over |SG| basic
// queries (Table 2).
func BenchmarkAugmentedQueryScan(b *testing.B) {
	tab := workload.HotelBooking()
	eng := benchEngine(b, tab)
	anchor := model.DataScope{
		Subspace:  model.NewSubspace(model.Filter{Dim: "City", Value: "Los Angeles"}),
		Breakdown: "Month",
		Measure:   model.Sum("Bookings"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AugmentedQuery(anchor, "City"); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tab.Rows()))
}

// BenchmarkEvaluateAll measures the full 11-type evaluation of one
// 12-point temporal series.
func BenchmarkEvaluateAll(b *testing.B) {
	keys := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	values := []float64{100, 70, 40, 10, 40, 70, 100, 101, 99, 100, 102, 100}
	cfg := pattern.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern.EvaluateAll(keys, values, true, cfg)
	}
}

// BenchmarkMinerSalesForecast measures a complete unbudgeted mining run on
// the Sales Forecast dataset.
func BenchmarkMinerSalesForecast(b *testing.B) {
	tab := workload.SalesForecast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := experiments.FullFunctionality().Run(tab)
		if len(res.MetaInsights) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkQuickInsightSalesForecast measures the QuickInsight baseline on
// the same dataset, for the overhead comparison of Figure 7.
func BenchmarkQuickInsightSalesForecast(b *testing.B) {
	tab := workload.SalesForecast()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(tab, engine.Config{QueryCache: cache.NewQueryCache(true)})
		if err != nil {
			b.Fatal(err)
		}
		res := quickinsight.Mine(eng, quickinsight.Config{})
		if len(res.Insights) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkGreedyRanking measures the paper's ranking algorithm over the
// Hotel Booking candidate set (thousands of MetaInsights, k = 10).
func BenchmarkGreedyRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.HotelBooking())
	w := ranker.DefaultWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.Greedy(res.MetaInsights, 10, w); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkExactRanking measures the exponential exact baseline over a
// 16-candidate pool (the Table 4 configuration).
func BenchmarkExactRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.CreditCard())
	w := ranker.DefaultWeights()
	pool := ranker.RankByScore(res.MetaInsights, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.ExactTopK(pool, 10, w, 0); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// --------------------------------------------------------------- ablations

// ablationRun mines Sales Forecast under a fixed cost budget with one
// optimization toggled, reporting discovered-MetaInsight counts as the
// quality metric (more is better at equal budget).
func ablationRun(b *testing.B, mutate func(*experiments.Setup)) {
	b.Helper()
	tab := workload.SalesForecast()
	golden, _ := experiments.FullFunctionality().Run(tab)
	budget := 0.25 * golden.Stats.CostUsed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup := experiments.FullFunctionality()
		setup.BudgetUnits = budget
		mutate(&setup)
		res, _ := setup.Run(tab)
		b.ReportMetric(float64(len(res.MetaInsights)), "insights")
	}
}

// BenchmarkAblationFull is the reference point for the ablation benches.
func BenchmarkAblationFull(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) {})
}

// BenchmarkAblationNoQueryCache disables the query cache.
func BenchmarkAblationNoQueryCache(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.QueryCache = false })
}

// BenchmarkAblationNoPatternCache disables the pattern cache.
func BenchmarkAblationNoPatternCache(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.PatternCache = false })
}

// BenchmarkAblationFIFO replaces the priority queues with FIFO queues.
func BenchmarkAblationFIFO(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.Priority = false })
}

// BenchmarkAblationNoPruning disables both pruning rules (unbudgeted, so the
// metric is wall time rather than discovery count).
func BenchmarkAblationNoPruning(b *testing.B) {
	tab := workload.SalesForecast()
	for i := 0; i < b.N; i++ {
		meter := &engine.Meter{}
		eng, err := engine.New(tab, engine.Config{Meter: meter, QueryCache: cache.NewQueryCache(true)})
		if err != nil {
			b.Fatal(err)
		}
		cfg := miner.DefaultConfig()
		cfg.Workers = 1
		cfg.EnablePruning1 = false
		cfg.EnablePruning2 = false
		miner.New(eng, cfg).Run()
	}
}

// BenchmarkAnalyzeEndToEnd measures a single-use session (construct, then
// one Analyze call) on a small dataset, the path a downstream user hits
// first.
func BenchmarkAnalyzeEndToEnd(b *testing.B) {
	tab := workload.CreditCard()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := metainsight.NewSession(tab)
		if err != nil {
			b.Fatal(err)
		}
		an, err := s.Analyze(context.Background(), metainsight.Request{TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(an.Insights) == 0 {
			b.Fatal("no insights")
		}
	}
}

// BenchmarkExactRankingGrouped measures the decomposed exact optimum over a
// full candidate set (the algorithmic improvement behind Table 4's
// Baseline row).
func BenchmarkExactRankingGrouped(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.SalesForecast())
	w := ranker.DefaultWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.ExactTopKGrouped(res.MetaInsights, 10, w, 18); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkGreedyExactRanking measures the exact-marginal greedy extension.
func BenchmarkGreedyExactRanking(b *testing.B) {
	res, _ := experiments.FullFunctionality().Run(workload.SalesForecast())
	w := ranker.DefaultWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ranker.GreedyExact(res.MetaInsights, 10, w); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkAblationPatternsFirst measures the paper's module-feeding
// schedule against the default merged queue (same budget; the merged queue
// discovers more per cost unit because augmented prefetches also serve the
// pattern module).
func BenchmarkAblationPatternsFirst(b *testing.B) {
	ablationRun(b, func(s *experiments.Setup) { s.PatternsFirst = true })
}

// BenchmarkDiscussion regenerates the Section 6 categorization-robustness
// comparison.
func BenchmarkDiscussion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Discussion(io.Discard, 200, 42)
	}
}

// BenchmarkFilteredScanIndexed measures a selective filtered scan, which the
// engine drives from the most selective filter's posting list rather than
// the full table (compare BenchmarkBasicQueryScan's single-filter scan).
func BenchmarkFilteredScanIndexed(b *testing.B) {
	tab := workload.HotelBooking()
	eng := benchEngine(b, tab)
	ds := model.DataScope{
		Subspace: model.NewSubspace(
			model.Filter{Dim: "City", Value: "Los Angeles"},
			model.Filter{Dim: "Channel", Value: "Web"},
			model.Filter{Dim: "RoomType", Value: "Suite"},
		),
		Breakdown: "Month",
		Measure:   model.Sum("Bookings"),
	}
	if _, err := eng.BasicQuery(ds); err != nil { // warm the posting lists
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BasicQuery(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkers measures a full unbudgeted mining run at a given worker count
// (the paper pins 8 worker threads).
func benchWorkers(b *testing.B, workers int) {
	tab := workload.TabletSales()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup := experiments.FullFunctionality()
		setup.Workers = workers
		res, _ := setup.Run(tab)
		if len(res.MetaInsights) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkMinerWorkers1 is the single-threaded reference.
func BenchmarkMinerWorkers1(b *testing.B) { benchWorkers(b, 1) }

// BenchmarkMinerWorkers2 doubles the evaluation workers.
func BenchmarkMinerWorkers2(b *testing.B) { benchWorkers(b, 2) }

// BenchmarkMinerWorkers4 quadruples the evaluation workers.
func BenchmarkMinerWorkers4(b *testing.B) { benchWorkers(b, 4) }

// BenchmarkMinerWorkers8 matches the paper's 8 worker threads.
func BenchmarkMinerWorkers8(b *testing.B) { benchWorkers(b, 8) }

// BenchmarkParallelScaling runs the same unbudgeted Tablet Sales mining run
// at 1/2/4/8 workers as sub-benchmarks, so a single invocation reports the
// whole scaling curve. Results and accounting are identical at every width
// (single-flight execution + canonical-order commit), so the deltas are pure
// wall-clock.
func BenchmarkParallelScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchWorkers(b, w) })
	}
}

// BenchmarkParallelScalingObserved is BenchmarkParallelScaling with the
// observability layer attached (metrics, phase timers and a tracing ring per
// run), measuring the observer's overhead on the scaling curve. CI runs this
// once as a smoke test of the instrumented path.
func BenchmarkParallelScalingObserved(b *testing.B) {
	tab := workload.TabletSales()
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ob := obs.New(obs.Options{TraceCapacity: 1 << 14})
				setup := experiments.FullFunctionality()
				setup.Workers = w
				setup.Observer = ob
				res, _ := setup.Run(tab)
				if len(res.MetaInsights) == 0 {
					b.Fatal("no results")
				}
				if ob.Trace().Len() == 0 {
					b.Fatal("no trace events recorded")
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates the Table 1 / Appendix 9.1 pattern-type
// exemplars.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

// BenchmarkPruning regenerates the pruning-effectiveness ablation on the
// smaller two datasets (the full four-dataset run lives in
// cmd/experiments -run pruning; the no-query-cache arm on the 1M+-cell
// dataset alone takes tens of seconds).
func BenchmarkPruning(b *testing.B) {
	tables := []*dataset.Table{workload.CreditCard(), workload.SalesForecast()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Pruning(io.Discard, tables)
	}
}

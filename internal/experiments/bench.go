package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"metainsight"
	"metainsight/internal/cache"
	"metainsight/internal/dataset"
	"metainsight/internal/engine"
	"metainsight/internal/miner"
	"metainsight/internal/model"
	"metainsight/internal/pattern"
	"metainsight/internal/workload"
)

// BenchResult is one measured scenario of the physical-layer bench harness.
type BenchResult struct {
	Name        string `json:"name"`
	Table       string `json:"table"`
	Filters     int    `json:"filters"`
	Substrate   string `json:"substrate"` // "vec" or "ref"
	Parallelism int    `json:"parallelism"`
	// Postings names the posting-list representation of a multi-filter scan
	// arm: "slice" forces the sorted-slice intersect path (the differential
	// reference), "bitmap" the compressed-container AND kernels. Empty for
	// arms where the distinction does not apply (full scans, ref, mine).
	Postings    string  `json:"postings,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowsScanned int     `json:"rows_scanned"` // simulated metered rows per op
	RowsPerSec  float64 `json:"rows_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// BoundSkips carries Stats.BoundSkips + Stats.BoundScanSkips of the last
	// run of a mine arm: frontier work the impact-sum bounds cut without
	// issuing a query.
	BoundSkips int64 `json:"bound_skips,omitempty"`
}

// BenchPostings is one postings-memory row: the size of a table's compressed
// bitmap posting-list substrate against the uncompressed sorted-slice
// footprint it replaced (4 bytes per row per dimension). The numbers are
// deterministic functions of the data, not measurements.
type BenchPostings struct {
	Table             string  `json:"table"`
	Rows              int     `json:"rows"`
	Dimensions        int     `json:"dimensions"`
	CompressedBytes   int64   `json:"compressed_bytes"`
	UncompressedBytes int64   `json:"uncompressed_bytes"`
	BytesPerRow       float64 `json:"bytes_per_row"`
	CompressionRatio  float64 `json:"compression_ratio"`
	ArrayContainers   int     `json:"array_containers"`
	RunContainers     int     `json:"run_containers"`
	BitmapContainers  int     `json:"bitmap_containers"`
}

// BenchSpeedup compares a vectorized scenario against its reference baseline.
type BenchSpeedup struct {
	Scenario string  `json:"scenario"`
	Baseline string  `json:"baseline"`
	Speedup  float64 `json:"speedup"` // baseline ns/op ÷ scenario ns/op
}

// BenchHeadline is one headline number of the report: the full-scan
// (filters=0) unit scans against the naive reference, and the end-to-end
// mining curve across cost budgets.
type BenchHeadline struct {
	Scenario        string  `json:"scenario"`
	NsPerOp         float64 `json:"ns_per_op"`
	Baseline        string  `json:"baseline,omitempty"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// BenchReport is the BENCH_10.json document.
type BenchReport struct {
	Description string          `json:"description"`
	Headline    []BenchHeadline `json:"headline"`
	Results     []BenchResult   `json:"results"`
	Postings    []BenchPostings `json:"postings"`
	Speedups    []BenchSpeedup  `json:"speedups"`
}

// benchSpec names one scenario of the harness.
type benchSpec struct {
	kind    string // "unit", "aug" or "mine"
	table   string
	filters int
	sub     string // "vec" or "ref"
	par     int
	post    string  // multi-filter unit arms: "slice" or "bitmap"
	budget  float64 // mine scenarios: cost budget of the run
	tight   bool    // mine scenarios: raised impact thresholds so bound cuts fire
}

func (s benchSpec) name() string {
	if s.kind == "mine" {
		n := fmt.Sprintf("mine/budget=%g/par=%d", s.budget, s.par)
		if s.tight {
			n += "/bounds=tight"
		}
		return n
	}
	if s.sub == "ref" {
		return fmt.Sprintf("%s/table=%s/filters=%d/sub=ref", s.kind, s.table, s.filters)
	}
	n := fmt.Sprintf("%s/table=%s/filters=%d/sub=vec/par=%d", s.kind, s.table, s.filters, s.par)
	if s.post != "" {
		n += "/post=" + s.post
	}
	return n
}

// benchGen builds the two synthetic bench datasets, mirroring the in-package
// engine benchmarks so numbers are comparable.
func benchGen(card string) *dataset.Table {
	switch card {
	case "small":
		return workload.Generate(workload.GenSpec{Name: "bench-small", Seed: 61, Cards: []int{8, 6, 5}, Periods: 12, Measures: 2, RowsPerCell: 35})
	case "large":
		return workload.Generate(workload.GenSpec{Name: "bench-large", Seed: 67, Cards: []int{64, 24, 12}, Periods: 12, Measures: 2, RowsPerCell: 1})
	}
	panic("unknown bench table " + card)
}

func benchFilters(tab *dataset.Table, n int) model.Subspace {
	dims := []string{"DimB", "DimC", "Period"}
	sub := model.EmptySubspace
	for i := 0; i < n && i < len(dims); i++ {
		col := tab.Dimension(dims[i])
		sub = sub.With(dims[i], col.Domain()[col.Cardinality()/2])
	}
	return sub
}

// Bench runs the reproducible physical-layer bench harness and writes the
// BENCH_10.json report to outPath: unit and augmented scans across filter
// depth, table size and parallelism for the vectorized substrate and the
// naive reference baseline, plus an end-to-end mining curve across cost
// budgets, each reporting ns/op, simulated rows scanned, rows/sec and
// allocations. Multi-filter unit arms run twice — post=bitmap (compressed
// container AND kernels) and post=slice (the sorted-slice intersect retained
// as the differential reference) — to measure the bitmap-postings curve; the
// postings section reports each table's compressed index footprint against
// the 4-bytes-per-row sorted-slice baseline. The headline section carries
// the filters=0 full-scan speedups (the flat-code group-by kernel against
// the naive reference), the bitmap-vs-slice multi-filter headline and the
// mine curve (with impact-bound skip counts); the speedup section divides
// each reference ns/op by its vectorized counterparts and each post=slice
// ns/op by its post=bitmap twin. Reference rows report parallelism 1 — the
// naive scan is single-threaded — so every row satisfies parallelism >= 1.
func Bench(w io.Writer, outPath string) error {
	rep := BenchReport{
		Description: "Physical scan-layer benchmarks: vectorized morsel-parallel substrate (vec, flat-code group-by + zone maps + compressed bitmap postings) vs retained naive reference (ref). Multi-filter unit arms run with post=bitmap (container AND kernels) and post=slice (sorted-slice intersect, the differential reference); the postings section reports compressed index bytes against the 4 B/row sorted-slice footprint; mine rows carry bound_skips, the frontier work the impact-sum bounds cut without issuing a query. rows_scanned is the simulated metered row count of the plan; speedup = baseline ns/op ÷ scenario ns/op.",
	}

	var specs []benchSpec
	for _, table := range []string{"small", "large"} {
		for _, nf := range []int{0, 2, 3} {
			for _, cfg := range []struct {
				sub string
				par int
			}{{"vec", 1}, {"vec", 4}, {"ref", 1}} {
				if cfg.sub == "vec" && nf > 0 {
					// Multi-filter scans split by postings representation.
					for _, post := range []string{"bitmap", "slice"} {
						specs = append(specs, benchSpec{kind: "unit", table: table, filters: nf, sub: cfg.sub, par: cfg.par, post: post})
					}
					continue
				}
				specs = append(specs, benchSpec{kind: "unit", table: table, filters: nf, sub: cfg.sub, par: cfg.par})
			}
		}
		for _, nf := range []int{0, 2} {
			for _, cfg := range []struct {
				sub string
				par int
			}{{"vec", 1}, {"vec", 4}, {"ref", 1}} {
				specs = append(specs, benchSpec{kind: "aug", table: table, filters: nf, sub: cfg.sub, par: cfg.par})
			}
		}
	}
	for _, budget := range []float64{100, 400, 1600} {
		specs = append(specs, benchSpec{kind: "mine", par: 1, budget: budget})
	}
	specs = append(specs, benchSpec{kind: "mine", par: 4, budget: 400})
	specs = append(specs, benchSpec{kind: "mine", par: 1, budget: 400, tight: true})

	tables := map[string]*dataset.Table{"small": benchGen("small"), "large": benchGen("large")}
	refNs := map[string]float64{} // kind/table/filters -> reference ns/op

	for _, spec := range specs {
		var fn func(b *testing.B)
		rowsScanned := 0
		var boundSkips int64
		switch spec.kind {
		case "mine":
			par, budget, tight := spec.par, spec.budget, spec.tight
			if tight {
				// CreditCard is balanced, so with the default thresholds no
				// (dimension, value) share dips below the impact thresholds
				// and the bound cuts correctly never fire. This arm raises
				// them above the per-month impact share (~1/12) via the miner
				// directly — the Session API deliberately does not expose
				// them — so the report carries a mine row where bound_skips
				// is exercised (every Month expansion scan is provably
				// fruitless and skipped unqueried).
				fn = func(b *testing.B) {
					tab := workload.CreditCard()
					for i := 0; i < b.N; i++ {
						meter := &engine.Meter{}
						eng, err := engine.New(tab, engine.Config{
							Meter:           meter,
							QueryCache:      cache.NewQueryCache(true),
							ScanParallelism: par,
						})
						if err != nil {
							b.Fatal(err)
						}
						cfg := miner.DefaultConfig()
						cfg.Workers = 1
						cfg.MinImpact = 0.1
						cfg.MinSubspaceImpact = 0.1
						cfg.PatternCache = cache.NewPatternCache[*pattern.ScopeEvaluation](true)
						cfg.Budget = miner.CostBudget{Meter: meter, Limit: budget}
						res := miner.New(eng, cfg).Run()
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						boundSkips = res.Stats.BoundSkips + res.Stats.BoundScanSkips
					}
				}
				break
			}
			fn = func(b *testing.B) {
				tab := workload.CreditCard()
				sess, err := metainsight.NewSession(tab,
					metainsight.WithScanParallelism(par))
				if err != nil {
					b.Fatal(err)
				}
				req := metainsight.Request{Budget: metainsight.Budget{Cost: budget}}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					an, err := sess.Analyze(context.Background(), req)
					if err != nil {
						b.Fatal(err)
					}
					boundSkips = an.Result.Stats.BoundSkips + an.Result.Stats.BoundScanSkips
				}
			}
		default:
			tab := tables[spec.table]
			makeSub := func() engine.Substrate {
				if spec.sub == "ref" {
					return engine.NewReferenceSubstrate(tab, nil)
				}
				opts := []engine.ColumnarOption{engine.WithScanParallelism(spec.par)}
				switch spec.post {
				case "slice":
					opts = append(opts, engine.WithPlanMode(engine.PlanIntersect))
				case "bitmap":
					opts = append(opts, engine.WithPlanMode(engine.PlanBitmap))
				}
				return engine.NewColumnarSubstrate(tab, opts...)
			}
			var s model.Subspace
			if spec.kind == "aug" {
				// Filters on DimB/DimC only; Period is the ext dimension.
				s = benchFilters(tab, spec.filters)
				s = s.Without("Period")
			} else {
				s = benchFilters(tab, spec.filters)
			}
			augmented := spec.kind == "aug"
			if spec.post != "" {
				// Postings arms measure the first touch of a subspace — plan
				// (posting-set intersection) plus scan — by taking a fresh
				// substrate per op. The mining frontier plans each distinct
				// subspace exactly once, so the memoized steady state the other
				// arms measure would amortize the intersect kernels to zero;
				// posting lists and bitmaps stay cached on the shared table
				// columns, so only the per-subspace work is timed.
				fn = func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sub := makeSub()
						_, r, err := sub.ScanUnit(s, "DimA")
						if err != nil {
							b.Fatal(err)
						}
						rowsScanned = r
					}
				}
				break
			}
			sub := makeSub()
			fn = func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var r int
					var err error
					if augmented {
						_, r, err = sub.ScanAugmented(s, "DimA", "Period")
					} else {
						_, r, err = sub.ScanUnit(s, "DimA")
					}
					if err != nil {
						b.Fatal(err)
					}
					rowsScanned = r
				}
			}
		}

		res := testing.Benchmark(fn)
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		br := BenchResult{
			Name:        spec.name(),
			Table:       spec.table,
			Filters:     spec.filters,
			Substrate:   spec.sub,
			Parallelism: spec.par,
			Postings:    spec.post,
			NsPerOp:     nsPerOp,
			RowsScanned: rowsScanned,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if rowsScanned > 0 && nsPerOp > 0 {
			br.RowsPerSec = float64(rowsScanned) * 1e9 / nsPerOp
		}
		if spec.kind == "mine" {
			br.Table = "creditcard"
			br.Substrate = "vec"
			br.BoundSkips = boundSkips
		}
		rep.Results = append(rep.Results, br)
		key := fmt.Sprintf("%s/%s/%d", spec.kind, spec.table, spec.filters)
		if spec.sub == "ref" {
			refNs[key] = nsPerOp
		}
		fmt.Fprintf(w, "%-48s %12.0f ns/op %10d rows %8d allocs/op\n", br.Name, br.NsPerOp, br.RowsScanned, br.AllocsPerOp)
	}

	for _, r := range rep.Results {
		if r.Substrate != "vec" || r.Name == "" {
			continue
		}
		kind := "unit"
		if len(r.Name) >= 3 && r.Name[:3] == "aug" {
			kind = "aug"
		}
		if r.Table == "creditcard" {
			continue
		}
		base, ok := refNs[fmt.Sprintf("%s/%s/%d", kind, r.Table, r.Filters)]
		if !ok || r.NsPerOp == 0 {
			continue
		}
		rep.Speedups = append(rep.Speedups, BenchSpeedup{
			Scenario: r.Name,
			Baseline: fmt.Sprintf("%s/table=%s/filters=%d/sub=ref", kind, r.Table, r.Filters),
			Speedup:  base / r.NsPerOp,
		})
	}

	// Headline: the filters=0 full scans (where the flat-code kernel lives —
	// no posting list or zone map can narrow an unfiltered scan), the
	// bitmap-vs-slice multi-filter comparison, and the end-to-end mining
	// curve.
	byName := map[string]BenchResult{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}

	// Bitmap vs sorted-slice intersect: the same multi-filter scan through
	// the two postings representations; speedup = slice ns/op ÷ bitmap ns/op.
	for _, table := range []string{"small", "large"} {
		for _, nf := range []int{2, 3} {
			for _, par := range []int{1, 4} {
				bmName := fmt.Sprintf("unit/table=%s/filters=%d/sub=vec/par=%d/post=bitmap", table, nf, par)
				slName := fmt.Sprintf("unit/table=%s/filters=%d/sub=vec/par=%d/post=slice", table, nf, par)
				bm, okB := byName[bmName]
				sl, okS := byName[slName]
				if !okB || !okS || bm.NsPerOp == 0 {
					continue
				}
				rep.Speedups = append(rep.Speedups, BenchSpeedup{
					Scenario: bmName,
					Baseline: slName,
					Speedup:  sl.NsPerOp / bm.NsPerOp,
				})
				if par == 1 && ((table == "large" && nf == 2) || (table == "small" && nf == 3)) {
					rep.Headline = append(rep.Headline, BenchHeadline{
						Scenario:        bmName,
						NsPerOp:         bm.NsPerOp,
						Baseline:        slName,
						BaselineNsPerOp: sl.NsPerOp,
						Speedup:         sl.NsPerOp / bm.NsPerOp,
					})
				}
			}
		}
	}
	for _, table := range []string{"small", "large"} {
		scen := fmt.Sprintf("unit/table=%s/filters=0/sub=vec/par=1", table)
		base := fmt.Sprintf("unit/table=%s/filters=0/sub=ref", table)
		v, okV := byName[scen]
		b, okB := byName[base]
		if !okV || !okB || v.NsPerOp == 0 {
			continue
		}
		rep.Headline = append(rep.Headline, BenchHeadline{
			Scenario:        scen,
			NsPerOp:         v.NsPerOp,
			Baseline:        base,
			BaselineNsPerOp: b.NsPerOp,
			Speedup:         b.NsPerOp / v.NsPerOp,
		})
	}
	for _, r := range rep.Results {
		if r.Table == "creditcard" {
			rep.Headline = append(rep.Headline, BenchHeadline{Scenario: r.Name, NsPerOp: r.NsPerOp})
		}
	}

	// Postings-memory rows: deterministic footprints of the compressed
	// bitmap posting lists, per table, against the sorted-slice baseline.
	postTables := map[string]*dataset.Table{
		"small": tables["small"], "large": tables["large"], "creditcard": workload.CreditCard(),
	}
	for _, name := range []string{"small", "large", "creditcard"} {
		tab := postTables[name]
		st := tab.PostingsStats()
		row := BenchPostings{
			Table:             name,
			Rows:              tab.Rows(),
			Dimensions:        len(tab.Dimensions()),
			CompressedBytes:   st.CompressedBytes,
			UncompressedBytes: st.UncompressedBytes(),
			CompressionRatio:  st.CompressionRatio(),
			ArrayContainers:   st.ArrayContainers,
			RunContainers:     st.RunContainers,
			BitmapContainers:  st.BitmapContainers,
		}
		if tab.Rows() > 0 {
			row.BytesPerRow = float64(st.CompressedBytes) / float64(tab.Rows())
		}
		rep.Postings = append(rep.Postings, row)
		fmt.Fprintf(w, "postings/table=%-22s %10d B compressed %10d B slice  %6.2fx  %.2f B/row\n",
			name, row.CompressedBytes, row.UncompressedBytes, row.CompressionRatio, row.BytesPerRow)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d scenarios, %d speedups, %d postings rows)\n",
		outPath, len(rep.Results), len(rep.Speedups), len(rep.Postings))
	return nil
}

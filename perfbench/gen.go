package main

// The benchmark's own input generator. It mirrors the planted structure of
// the repository's synthetic workloads — Zipf-skewed member counts over a
// full cross product, a seasonal curve most members of the protagonist
// dimension share, a few exception members, a dominant member — but lives
// here so that edits to the program's generators cannot change the
// benchmark's inputs. The shape of every table (dimensions, cardinalities,
// expected rows) and its planted structure are fixed per workload; the
// seed draws the values around them, so the work per analysis stays
// comparable across seeds.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// dimSpec is one categorical dimension: a column name and its cardinality.
// Members are named <Prefix>01, <Prefix>02, ...
type dimSpec struct {
	Name   string
	Prefix string
	Card   int
}

// tableSpec fixes a generated table's shape.
type tableSpec struct {
	Name     string
	Dims     []dimSpec // categorical dimensions, before the Month column
	Measures []string  // 1 to 3 measure columns
	// RowsPerCell is the expected row count per cross-product cell
	// (categorical members × 12 months), before Zipf skew.
	RowsPerCell float64
}

// workloadTables returns the table shapes of a workload.
func workloadTables(workload string) []tableSpec {
	switch workload {
	case "analyze-small":
		// Five tables of 1k–8k rows: each fits in one 8192-row morsel.
		return []tableSpec{
			{"small0", []dimSpec{{"Region", "Region", 4}, {"Product", "Product", 4}, {"Channel", "Channel", 3}},
				[]string{"Sales", "Units", "Cost"}, 2.5},
			{"small1", []dimSpec{{"Segment", "Seg", 4}, {"Store", "Store", 5}, {"Payment", "Pay", 3}},
				[]string{"Spend", "Visits"}, 3},
			{"small2", []dimSpec{{"Country", "Country", 5}, {"Brand", "Brand", 4}, {"Tier", "Tier", 3}},
				[]string{"Revenue", "Orders"}, 4},
			{"small3", []dimSpec{{"Team", "Team", 4}, {"Site", "Site", 4}, {"Shift", "Shift", 3}},
				[]string{"Output", "Defects"}, 6},
			{"small4", []dimSpec{{"Carrier", "Carrier", 5}, {"Route", "Route", 3}, {"Class", "Class", 3}},
				[]string{"Fares", "Seats", "Fees"}, 3},
		}
	case "analyze-tall":
		// One table of ~0.8M rows (~100 morsels) with two low-cardinality
		// dimensions.
		return []tableSpec{
			{"tall0", []dimSpec{{"Region", "Region", 6}, {"Channel", "Channel", 5}},
				[]string{"Sales", "Units"}, 2200},
		}
	case "serve-mixed":
		// Three Credit-Card-sized tables (~2k rows).
		return []tableSpec{
			{"cc0", []dimSpec{{"Segment", "Seg", 5}, {"Channel", "Channel", 4}}, []string{"Spend", "Transactions"}, 8},
			{"cc1", []dimSpec{{"Segment", "Seg", 5}, {"Channel", "Channel", 4}}, []string{"Spend", "Transactions"}, 8},
			{"cc2", []dimSpec{{"Segment", "Seg", 5}, {"Channel", "Channel", 4}}, []string{"Spend", "Transactions"}, 8},
		}
	}
	return nil
}

// shape is a per-member multiplicative monthly curve.
type shape func(month int, r *rand.Rand) float64

func valleyAt(valley int, depth float64) shape {
	return func(month int, r *rand.Rand) float64 {
		d := float64(month - valley)
		v := math.Min(1, depth+(1-depth)*d*d/25)
		return v * (0.97 + 0.06*r.Float64())
	}
}

func peakAt(peak int, height float64) shape {
	return func(month int, r *rand.Rand) float64 {
		d := float64(month - peak)
		v := math.Max(1, height-(height-1)*d*d/25)
		return v * (0.97 + 0.06*r.Float64())
	}
}

func flat() shape {
	return func(int, *rand.Rand) float64 { return 1 } // noise comes from the row jitter
}

func noisy() shape {
	return func(_ int, r *rand.Rand) float64 { return 0.2 + 1.6*r.Float64() }
}

// memberShapes gives the members of the protagonist dimension their curves:
// most share the common curve; up to three members drawn from r are
// exceptions (a shifted curve, a flat one, a noisy one).
func memberShapes(n int, common, altered shape, r *rand.Rand) []shape {
	shapes := make([]shape, n)
	for i := range shapes {
		shapes[i] = common
	}
	exceptions := min(3, max(1, n/4))
	kinds := []shape{altered, flat(), noisy()}
	for e, m := range r.Perm(n)[:exceptions] {
		shapes[m] = kinds[e]
	}
	return shapes
}

// zipfWeights returns n weights with Zipf-like decay, normalized to mean 1.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 0.9)
		total += w[i]
	}
	for i := range w {
		w[i] *= float64(n) / total
	}
	return w
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// writeTable generates one table from the seed and writes it as CSV to
// path. The layout seed fixes the planted structure (curve positions,
// exception members, member base levels); the seed draws the row noise.
// It returns the number of data rows written.
func writeTable(path string, spec tableSpec, layout, seed int64) (int, error) {
	r := rand.New(rand.NewSource(layout))
	ndim := len(spec.Dims)
	weights := make([][]float64, ndim)
	for d, ds := range spec.Dims {
		weights[d] = zipfWeights(ds.Card)
	}
	// Planted structure: the first dimension is the protagonist whose
	// members share a seasonal curve; the second has a dominant member.
	center := r.Intn(12)
	altered := (center + 4 + r.Intn(4)) % 12
	var common, alt shape
	if r.Intn(2) == 0 {
		common, alt = valleyAt(center, 0.15+0.1*r.Float64()), valleyAt(altered, 0.15)
	} else {
		common, alt = peakAt(center, 2+0.5*r.Float64()), peakAt(altered, 2)
	}
	shapes := memberShapes(spec.Dims[0].Card, common, alt, r)
	base := make([]float64, spec.Dims[1].Card)
	for i := range base {
		base[i] = 30 + 60*r.Float64()
	}
	base[r.Intn(len(base))] *= 6
	r = rand.New(rand.NewSource(seed))

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for _, ds := range spec.Dims {
		fmt.Fprintf(w, "%s,", ds.Name)
	}
	fmt.Fprint(w, "Month")
	for _, m := range spec.Measures {
		fmt.Fprintf(w, ",%s", m)
	}
	fmt.Fprint(w, "\n")

	rows := 0
	idx := make([]int, ndim+1) // categorical members, then the month
	buf := make([]byte, 0, 128)
	for {
		mult := 1.0
		for d := 0; d < ndim; d++ {
			mult *= weights[d][idx[d]]
		}
		exact := spec.RowsPerCell * mult
		n := int(exact)
		if r.Float64() < exact-float64(n) {
			n++
		}
		month := idx[ndim]
		for rep := 0; rep < n; rep++ {
			scale := base[idx[1]] * (1 + 0.1*float64(idx[ndim-1]))
			v := scale * shapes[idx[0]](month, r) * (0.98 + 0.04*r.Float64())
			buf = buf[:0]
			for d, ds := range spec.Dims {
				buf = append(buf, ds.Prefix...)
				if idx[d]+1 < 10 {
					buf = append(buf, '0')
				}
				buf = strconv.AppendInt(buf, int64(idx[d]+1), 10)
				buf = append(buf, ',')
			}
			buf = append(buf, monthNames[month]...)
			for m := range spec.Measures {
				var x float64
				switch m {
				case 0:
					x = v
				case 1:
					x = v / (3 + float64(idx[0]))
				default:
					x = v * (0.05 + 0.01*float64(idx[1]%5)) * (0.9 + 0.2*r.Float64())
				}
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, round2(x), 'f', -1, 64)
			}
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return 0, err
			}
		}
		rows += n
		d := ndim
		for d >= 0 {
			idx[d]++
			card := 12
			if d < ndim {
				card = spec.Dims[d].Card
			}
			if idx[d] < card {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return rows, f.Close()
}

// generate writes every table of the workload into dir and returns their
// paths in spec order. Table i takes layout seed i and draws its noise from
// seed*1000+i, so tables differ from each other and from every other seed
// while each table's structure, and so the work it causes, stays put.
func generate(dir, workload string, seed int64) ([]string, error) {
	specs := workloadTables(workload)
	if specs == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	paths := make([]string, len(specs))
	for i, spec := range specs {
		paths[i] = filepath.Join(dir, spec.Name+".csv")
		if _, err := writeTable(paths[i], spec, int64(i), seed*1000+int64(i)); err != nil {
			return nil, fmt.Errorf("generating %s: %w", spec.Name, err)
		}
	}
	return paths, nil
}

package dataset

import (
	"math/rand"
	"reflect"
	"testing"

	"metainsight/internal/model"
)

// genRows builds adversarial row-id distributions for the container property
// suite. Each shape stresses a different representation: dense chunks become
// bitmap containers, sparse ones arrays, clustered ones runs, and the
// boundary shapes pin chunk-edge arithmetic.
func genRows(shape string, rng *rand.Rand) []int32 {
	switch shape {
	case "empty":
		return nil
	case "single":
		return []int32{int32(rng.Intn(3 * chunkSize))}
	case "sparse":
		// ~500 ids spread over 4 chunks: array containers.
		seen := map[int32]bool{}
		for len(seen) < 500 {
			seen[int32(rng.Intn(4*chunkSize))] = true
		}
		return sortedKeys(seen)
	case "dense":
		// ~60% of one chunk: a bitmap container.
		seen := map[int32]bool{}
		for len(seen) < chunkSize*6/10 {
			seen[int32(rng.Intn(chunkSize))] = true
		}
		return sortedKeys(seen)
	case "runs":
		// Long contiguous stretches with gaps: run containers.
		var rows []int32
		at := int32(rng.Intn(100))
		for at < 3*chunkSize {
			n := int32(200 + rng.Intn(2000))
			for v := at; v < at+n && v < 3*chunkSize; v++ {
				rows = append(rows, v)
			}
			at += n + int32(1+rng.Intn(500))
		}
		return rows
	case "boundary":
		// Ids hugging chunk edges, including full first/last words.
		var rows []int32
		for c := int32(0); c < 3; c++ {
			base := c << chunkBits
			for v := int32(0); v < 70; v++ {
				rows = append(rows, base+v)
			}
			for v := int32(chunkSize - 70); v < chunkSize; v++ {
				rows = append(rows, base+v)
			}
		}
		return rows
	case "fullchunk":
		rows := make([]int32, chunkSize)
		for i := range rows {
			rows[i] = chunkSize + int32(i)
		}
		return rows
	}
	panic("unknown shape " + shape)
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

var bitmapShapes = []string{"empty", "single", "sparse", "dense", "runs", "boundary", "fullchunk"}

// buildBitmapTestTable builds a 1000-row table whose dimension values cycle
// at different strides, so codes produce both clustered and scattered
// posting lists.
func buildBitmapTestTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder("bm", []model.Field{
		{Name: "A", Kind: model.KindCategorical},
		{Name: "B", Kind: model.KindCategorical},
		{Name: "M", Kind: model.KindMeasure},
	})
	names := []string{"u", "v", "w", "x", "y"}
	for i := 0; i < 1000; i++ {
		b.AddRow([]string{names[(i/100)%5], names[i%5]}, []float64{float64(i % 17)})
	}
	return b.Build()
}

func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range bitmapShapes {
		for trial := 0; trial < 4; trial++ {
			rows := genRows(shape, rng)
			bm := NewBitmapFromSorted(rows)
			if bm.Cardinality() != len(rows) {
				t.Fatalf("%s: cardinality %d, want %d", shape, bm.Cardinality(), len(rows))
			}
			got := bm.ToArray(nil)
			if len(got) == 0 && len(rows) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, rows) {
				t.Fatalf("%s: round trip mismatch: got %d rows, want %d", shape, len(got), len(rows))
			}
		}
	}
}

// TestBitmapAndMatchesIntersect pins compressed-container intersection
// against the sorted-slice reference on every pair of adversarial
// distributions, which exercises all six container-pair kernels.
func TestBitmapAndMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sa := range bitmapShapes {
		for _, sb := range bitmapShapes {
			a := genRows(sa, rng)
			b := genRows(sb, rng)
			want := Intersect(a, b)
			got := And(NewBitmapFromSorted(a), NewBitmapFromSorted(b)).ToArray(nil)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s×%s: bitmap AND disagrees with Intersect: got %d rows, want %d", sa, sb, len(got), len(want))
			}
		}
	}
}

func TestBitmapAndAllMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		lists := [][]int32{
			genRows("dense", rng),
			genRows("runs", rng),
			genRows("sparse", rng),
		}
		want := Intersect(lists...)
		bms := make([]*Bitmap, len(lists))
		for i, l := range lists {
			bms[i] = NewBitmapFromSorted(l)
		}
		got := AndAll(bms...).ToArray(nil)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AndAll disagrees with Intersect: got %d rows, want %d", trial, len(got), len(want))
		}
	}
}

func TestBitmapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dense := NewBitmapFromSorted(genRows("dense", rng))
	runs := NewBitmapFromSorted(genRows("runs", rng))
	sparse := NewBitmapFromSorted(genRows("sparse", rng))
	if s := dense.Stats(); s.BitmapContainers == 0 {
		t.Errorf("dense shape produced no bitmap containers: %+v", s)
	}
	if s := runs.Stats(); s.RunContainers == 0 {
		t.Errorf("run shape produced no run containers: %+v", s)
	}
	if s := sparse.Stats(); s.ArrayContainers == 0 {
		t.Errorf("sparse shape produced no array containers: %+v", s)
	}
	// Clustered data must compress well below the 4-byte-per-row slice form.
	if s := runs.Stats(); s.CompressionRatio() < 4 {
		t.Errorf("run-shaped postings compress only %.2fx", s.CompressionRatio())
	}
	var agg BitmapStats
	agg.Add(dense.Stats())
	agg.Add(runs.Stats())
	if agg.Cardinality != int64(dense.Cardinality()+runs.Cardinality()) {
		t.Errorf("aggregate cardinality %d", agg.Cardinality)
	}
}

func TestBitmapAndCostPure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := NewBitmapFromSorted(genRows("dense", rng))
	b := NewBitmapFromSorted(genRows("sparse", rng))
	c1 := BitmapAndCost(a, b)
	c2 := BitmapAndCost(a, b)
	if c1 != c2 || c1 <= 0 {
		t.Fatalf("BitmapAndCost not deterministic or non-positive: %g vs %g", c1, c2)
	}
	if BitmapAndCost(a) != 0 || BitmapAndCost() != 0 {
		t.Fatal("degenerate arities must cost zero")
	}
}

// TestIntersectSingleListCopies pins the defensive copy of the one-list
// call: mutating the result must not write through to the input.
func TestIntersectSingleListCopies(t *testing.T) {
	in := []int32{1, 2, 3}
	out := Intersect(in)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %v, want %v", out, in)
	}
	out[0] = 99
	if in[0] != 1 {
		t.Fatal("Intersect aliased its single input; caller mutation corrupted it")
	}
}

func TestPostingsBitmapMatchesPostings(t *testing.T) {
	tab := buildBitmapTestTable(t)
	for _, d := range tab.Dimensions() {
		for code := 0; code < d.Cardinality(); code++ {
			want := d.Postings(code)
			got := d.PostingsBitmap(code).ToArray(nil)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dim %s code %d: bitmap postings disagree with slices", d.Name, code)
			}
		}
		if d.PostingsBitmap(-1) != nil || d.PostingsBitmap(d.Cardinality()) != nil {
			t.Fatal("out-of-range codes must return nil")
		}
	}
}

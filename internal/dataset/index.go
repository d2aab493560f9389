package dataset

// Posting lists: for each (dimension, value) pair, the sorted row ids holding
// that value. Filtered group-by scans iterate the most selective filter's
// posting list instead of the whole table, the classic inverted-index
// optimization of columnar engines. Lists are built lazily per dimension and
// cached on the column; Table is immutable after Build, so the build is
// idempotent and race-free under sync.Once.

import "sync"

// postings holds the per-value row lists of one dimension column.
type postings struct {
	once sync.Once
	rows [][]int32 // code -> sorted row ids
}

// Postings returns the row ids holding the given dictionary code, in
// ascending order. The first call per column materializes the lists in one
// O(rows) pass. The bounds check runs against the dictionary first, so an
// out-of-range code (e.g. the -1 of an absent filter value) never triggers
// the build.
func (c *DimColumn) Postings(code int) []int32 {
	if code < 0 || code >= len(c.dict) {
		return nil
	}
	c.index2().once.Do(c.buildPostings)
	return c.post.rows[code]
}

// index2 lazily allocates the postings holder (kept separate so DimColumn's
// zero value stays cheap for columns never used as filters).
func (c *DimColumn) index2() *postings {
	c.postOnce.Do(func() { c.post = &postings{} })
	return c.post
}

func (c *DimColumn) buildPostings() {
	counts := make([]int32, len(c.dict))
	for _, code := range c.codes {
		counts[code]++
	}
	rows := make([][]int32, len(c.dict))
	for v := range rows {
		rows[v] = make([]int32, 0, counts[v])
	}
	for r, code := range c.codes {
		rows[code] = append(rows[code], int32(r))
	}
	c.post.rows = rows
}

// PostingsBitmap returns the compressed bitmap posting set of the given
// dictionary code, or nil for an out-of-range code (e.g. the -1 of an absent
// filter value). The first call per column materializes the bitmaps for every
// code in one O(rows) pass over the dictionary codes — row ids arrive in
// ascending order per code by construction, which is exactly the builder's
// input contract.
func (c *DimColumn) PostingsBitmap(code int) *Bitmap {
	if code < 0 || code >= len(c.dict) {
		return nil
	}
	c.bmOnce.Do(c.buildBitmapPostings)
	return c.bmPost[code]
}

func (c *DimColumn) buildBitmapPostings() {
	builders := make([]*bitmapBuilder, len(c.dict))
	for i := range builders {
		builders[i] = newBitmapBuilder()
	}
	for r, code := range c.codes {
		builders[code].Add(int32(r))
	}
	bms := make([]*Bitmap, len(builders))
	for i, bb := range builders {
		bms[i] = bb.Finish()
	}
	c.bmPost = bms
}

// BitmapPostingsStats builds the column's bitmap postings if needed and
// reports their aggregate container composition and byte footprint.
func (c *DimColumn) BitmapPostingsStats() BitmapStats {
	c.bmOnce.Do(c.buildBitmapPostings)
	var s BitmapStats
	for _, bm := range c.bmPost {
		s.Add(bm.Stats())
	}
	return s
}

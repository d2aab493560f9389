package dataset

// Zone maps: per-block min/max dictionary codes of a dimension column, the
// classic small-materialized-aggregate trick. A filtered scan consults them
// to skip whole blocks whose code range excludes the filter value — on
// clustered data (sorted tables, cross-product generators) most blocks hold
// a narrow code range and a selective filter eliminates nearly all of them
// without touching a single row. Like posting lists, zone maps are built
// lazily in one O(rows) pass and cached on the immutable column; the block
// size is supplied by the caller (the engine passes its morsel size so each
// surviving block is exactly one morsel of the scan pipeline).

// ZoneMap holds the per-block [min, max] dictionary-code ranges of one
// dimension column at one block size. It is immutable after construction.
type ZoneMap struct {
	blockRows int
	mins      []int32
	maxs      []int32
}

// BlockRows returns the block size in rows the map was built at.
func (z *ZoneMap) BlockRows() int { return z.blockRows }

// Blocks returns the number of blocks covered.
func (z *ZoneMap) Blocks() int { return len(z.mins) }

// Min returns the smallest dictionary code occurring in block b.
func (z *ZoneMap) Min(b int) int32 { return z.mins[b] }

// Max returns the largest dictionary code occurring in block b.
func (z *ZoneMap) Max(b int) int32 { return z.maxs[b] }

// Contains reports whether code can occur in block b — false means the
// block is provably free of the code and a scan may skip it wholesale.
// Out-of-range blocks contain nothing.
func (z *ZoneMap) Contains(b int, code int32) bool {
	if b < 0 || b >= len(z.mins) {
		return false
	}
	return code >= z.mins[b] && code <= z.maxs[b]
}

// Zones returns the column's zone map at the given block size, building it
// on first use and caching it per size. blockRows must be positive.
func (c *DimColumn) Zones(blockRows int) *ZoneMap {
	if blockRows <= 0 {
		blockRows = 1
	}
	c.zoneMu.Lock()
	defer c.zoneMu.Unlock()
	if z, ok := c.zones[blockRows]; ok {
		return z
	}
	nb := (len(c.codes) + blockRows - 1) / blockRows
	z := &ZoneMap{
		blockRows: blockRows,
		mins:      make([]int32, nb),
		maxs:      make([]int32, nb),
	}
	for b := 0; b < nb; b++ {
		lo := b * blockRows
		hi := lo + blockRows
		if hi > len(c.codes) {
			hi = len(c.codes)
		}
		mn, mx := c.codes[lo], c.codes[lo]
		for _, code := range c.codes[lo+1 : hi] {
			if code < mn {
				mn = code
			}
			if code > mx {
				mx = code
			}
		}
		z.mins[b], z.maxs[b] = mn, mx
	}
	if c.zones == nil {
		c.zones = make(map[int]*ZoneMap)
	}
	c.zones[blockRows] = z
	return z
}

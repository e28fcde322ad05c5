package column

import (
	"math"
	"slices"
)

// DefaultZoneRows is the row-range granularity of batch zone statistics:
// one ColZone per 8192-row range per column. Small enough that a selective
// predicate skips most of a large table, large enough that the stats stay a
// negligible fraction of the data.
const DefaultZoneRows = 8192

// ColZone is the zone statistic of one column over one contiguous row range.
// Min/max are tracked in the column's native domain — int64 for the integer
// family (Int64, Timestamp, Bool), float64 for Float64, lexicographic for
// String — never through a lossy conversion (a nanosecond timestamp does not
// survive float64).
type ColZone struct {
	IMin, IMax int64   // integer family, over non-null values
	FMin, FMax float64 // Float64, over non-null non-NaN values
	SMin, SMax string  // String, over non-null values
	NaNs       int     // Float64 NaN count (NaN compares specially, see exec)
	Finite     int     // Float64 values that are neither null nor NaN
	NonNull    int     // non-null values in the range
}

// BatchZones is the per-range zone statistic of a whole batch: for each
// column, one ColZone per `Every` rows. Built once when a batch is installed
// in the catalog store; scans consult it to skip row ranges no row of which
// can satisfy a comparison predicate, and the planner uses it for
// cardinality estimates.
type BatchZones struct {
	Every int
	Rows  int
	Cols  map[string][]ColZone
	// Sorted marks the integer-family columns that are null-free and
	// non-decreasing over the whole batch. A join whose build side is the
	// table, on such a column, finds each key's rows by binary search
	// instead of building a hash table.
	Sorted map[string]bool
}

// Ranges returns the number of row ranges covered.
func (bz *BatchZones) Ranges() int {
	if bz == nil || bz.Every == 0 {
		return 0
	}
	return (bz.Rows + bz.Every - 1) / bz.Every
}

// Bounds returns the row window [lo, hi) of range ri.
func (bz *BatchZones) Bounds(ri int) (lo, hi int) {
	lo = ri * bz.Every
	hi = lo + bz.Every
	if hi > bz.Rows {
		hi = bz.Rows
	}
	return lo, hi
}

// BuildZones computes the zone statistics of b at the given range size
// (<= 0 selects DefaultZoneRows). One linear pass per column, plus, for an
// integer-family column, the sortedness check over the same vector.
func BuildZones(b *Batch, every int) *BatchZones {
	if every <= 0 {
		every = DefaultZoneRows
	}
	n := b.NumRows()
	bz := &BatchZones{Every: every, Rows: n, Cols: make(map[string][]ColZone, b.NumCols()), Sorted: make(map[string]bool)}
	nRanges := (n + every - 1) / every
	for ci := 0; ci < b.NumCols(); ci++ {
		c := b.ColAt(ci)
		zones := make([]ColZone, nRanges)
		nulls := c.Nulls()
		for ri := 0; ri < nRanges; ri++ {
			lo, hi := bz.Bounds(ri)
			zones[ri] = colZoneOf(c, nulls, lo, hi)
		}
		bz.Cols[c.Name()] = zones
		if c.Type().IntFamily() && !slices.Contains(nulls, true) && slices.IsSorted(c.Int64s()) {
			bz.Sorted[c.Name()] = true
		}
	}
	return bz
}

func colZoneOf(c *Column, nulls []bool, lo, hi int) ColZone {
	z := ColZone{FMin: math.Inf(1), FMax: math.Inf(-1)}
	switch c.Type() {
	case Float64:
		vals := c.Float64s()
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			z.NonNull++
			v := vals[i]
			if math.IsNaN(v) {
				z.NaNs++
				continue
			}
			if z.Finite == 0 || v < z.FMin {
				z.FMin = v
			}
			if z.Finite == 0 || v > z.FMax {
				z.FMax = v
			}
			z.Finite++
		}
	case String:
		vals := c.Strings()
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			v := vals[i]
			if z.NonNull == 0 || v < z.SMin {
				z.SMin = v
			}
			if z.NonNull == 0 || v > z.SMax {
				z.SMax = v
			}
			z.NonNull++
		}
	default: // Int64, Timestamp, Bool
		vals := c.Int64s()
		for i := lo; i < hi; i++ {
			if nulls != nil && nulls[i] {
				continue
			}
			v := vals[i]
			if z.NonNull == 0 || v < z.IMin {
				z.IMin = v
			}
			if z.NonNull == 0 || v > z.IMax {
				z.IMax = v
			}
			z.NonNull++
		}
	}
	return z
}

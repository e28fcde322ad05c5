package exec

// Key-specialized sorting for ORDER BY. A single integer-family key (the
// common ORDER BY sample_time case) takes an LSD radix sort over bias-
// mapped uint64 keys; float, string and multi-key sorts fall back to the
// comparator sort. Both are stable sorts under the same total preorder
// (nulls first ascending, last descending, matching sortKeyData.compareRows
// with the Desc flip), so they produce the identical permutation.

import (
	"context"
	"sort"
)

// Sort strategy names, reported through SortStats.
const (
	SortStrategyRadix      = "radix"
	SortStrategyComparator = "comparator"
	SortStrategyNone       = "none" // no keys or <= 1 row
)

// radixEligible reports whether the key set takes the radix path: a single
// integer-family key (int64, timestamp, bool share the int vector).
func radixEligible(keyData []sortKeyData) bool {
	return len(keyData) == 1 && keyData[0].ints != nil
}

// sortSel stably sorts sel — batch row indices — by the evaluated keys,
// choosing the radix path when it applies, and reports the strategy used
// (or ctx.Err(), sel then in no order).
func sortSel(ctx context.Context, keyData []sortKeyData, sel []int32) (string, error) {
	if radixEligible(keyData) {
		return SortStrategyRadix, radixSortInts(ctx, &keyData[0], sel)
	}
	return SortStrategyComparator, comparatorSortSel(ctx, keyData, sel)
}

// comparatorSortSel is the generic stable path: sort.SliceStable over the
// unpacked key vectors. Every 2¹⁴ comparisons it looks at ctx; once it is
// done, every comparison is false, which ends the sort in near-linear time.
func comparatorSortSel(ctx context.Context, keyData []sortKeyData, sel []int32) error {
	var calls uint
	var err error
	sort.SliceStable(sel, func(a, z int) bool {
		if calls++; calls%(1<<14) == 0 && err == nil {
			err = ctx.Err()
		}
		return err == nil && lessRows(keyData, int(sel[a]), int(sel[z]))
	})
	return err
}

// lessRows is the engine's ORDER BY ordering over unpacked keys: the first
// non-tying key decides, with its Desc flag flipping the three-way result.
func lessRows(keyData []sortKeyData, ia, iz int) bool {
	for ki := range keyData {
		c := keyData[ki].compareRows(ia, iz)
		if c == 0 {
			continue
		}
		if keyData[ki].desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// radixBias maps an int64 sort key to a uint64 whose unsigned order is the
// ascending signed order (flip the sign bit); descending complements, so
// one unsigned LSD sort covers both directions.
func radixBias(v int64, desc bool) uint64 {
	u := uint64(v) ^ (1 << 63)
	if desc {
		u = ^u
	}
	return u
}

// radixSortInts stably sorts sel by a single integer-family key: null rows
// are split off in input order (nulls sort before everything ascending,
// after everything descending — exactly compareRows under the Desc flip),
// and the remaining rows run an 8-pass byte-digit LSD counting sort over
// bias-mapped keys. Histograms for all eight digits are built in one scan
// and uniform digits skip their pass, so nearly-sorted or small-range keys
// (dense ids, timestamps) pay only the passes that discriminate, each
// after a look at ctx.
func radixSortInts(ctx context.Context, k *sortKeyData, sel []int32) error {
	n := len(sel)
	if n <= 1 {
		return nil
	}
	keys := make([]uint64, 0, n)
	rows := make([]int32, 0, n)
	var nullRows []int32
	if k.nulls != nil {
		for _, s := range sel {
			if k.nulls[s] {
				nullRows = append(nullRows, s)
				continue
			}
			keys = append(keys, radixBias(k.ints[s], k.desc))
			rows = append(rows, s)
		}
	} else {
		for _, s := range sel {
			keys = append(keys, radixBias(k.ints[s], k.desc))
			rows = append(rows, s)
		}
	}

	m := len(rows)
	if m > 1 {
		var hist [8][256]int32
		for _, u := range keys {
			hist[0][byte(u)]++
			hist[1][byte(u>>8)]++
			hist[2][byte(u>>16)]++
			hist[3][byte(u>>24)]++
			hist[4][byte(u>>32)]++
			hist[5][byte(u>>40)]++
			hist[6][byte(u>>48)]++
			hist[7][byte(u>>56)]++
		}
		tmpK := make([]uint64, m)
		tmpR := make([]int32, m)
		for d := 0; d < 8; d++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			h := &hist[d]
			shift := uint(d * 8)
			// A digit with one occupied bucket cannot reorder anything.
			if h[byte(keys[0]>>shift)] == int32(m) {
				continue
			}
			var offs [256]int32
			var sum int32
			for b := 0; b < 256; b++ {
				offs[b] = sum
				sum += h[b]
			}
			for j, u := range keys {
				b := byte(u >> shift)
				tmpK[offs[b]] = u
				tmpR[offs[b]] = rows[j]
				offs[b]++
			}
			keys, tmpK = tmpK, keys
			rows, tmpR = tmpR, rows
		}
	}

	// Reassemble: nulls lead ascending, trail descending, in input order
	// either way (stability).
	if k.desc {
		copy(sel, rows)
		copy(sel[m:], nullRows)
	} else {
		copy(sel, nullRows)
		copy(sel[len(nullRows):], rows)
	}
	return nil
}

package exec

import (
	"context"
	"fmt"

	"repro/internal/column"
	"repro/internal/sql"
)

// SortKey is one ORDER BY key for Sort.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// SortStats describes how one sort executed: the key strategy chosen
// (radix vs comparator) and the rows it ordered.
type SortStats struct {
	Strategy string
	Rows     int
}

// sortKeyData is one key column unpacked into raw vectors so the comparator
// avoids boxing a Value pair per comparison.
type sortKeyData struct {
	desc  bool
	typ   column.Type
	ints  []int64
	fls   []float64
	strs  []string
	nulls []bool
}

// compareRows orders rows ia and iz under one key (-1, 0, 1), with nulls
// sorting before everything (matching column.Compare).
func (k *sortKeyData) compareRows(ia, iz int) int {
	if k.nulls != nil {
		an, zn := k.nulls[ia], k.nulls[iz]
		if an || zn {
			switch {
			case an && zn:
				return 0
			case an:
				return -1
			default:
				return 1
			}
		}
	}
	switch k.typ {
	case column.Float64:
		a, z := k.fls[ia], k.fls[iz]
		switch {
		case a < z:
			return -1
		case a > z:
			return 1
		}
	case column.String:
		a, z := k.strs[ia], k.strs[iz]
		switch {
		case a < z:
			return -1
		case a > z:
			return 1
		}
	default:
		a, z := k.ints[ia], k.ints[iz]
		switch {
		case a < z:
			return -1
		case a > z:
			return 1
		}
	}
	return 0
}

// evalSortKeys evaluates the ORDER BY expressions over the batch and
// unpacks them for the sort paths.
func evalSortKeys(b *column.Batch, keys []SortKey) ([]sortKeyData, error) {
	keyData := make([]sortKeyData, len(keys))
	for i, k := range keys {
		c, err := Eval(k.Expr, b)
		if err != nil {
			return nil, err
		}
		keyData[i] = sortKeyData{
			desc:  k.Desc,
			typ:   c.Type(),
			ints:  c.Int64s(),
			fls:   c.Float64s(),
			strs:  c.Strings(),
			nulls: c.Nulls(),
		}
	}
	return keyData, nil
}

// Sort returns the batch reordered by the keys (stable), with the execution
// stats: one sortSel over the whole batch (radix for a single
// integer-family key, comparator otherwise) and one gather — none once ctx
// is done: then it returns ctx.Err() within a radix pass or 2¹⁴ comparisons.
func Sort(ctx context.Context, b *column.Batch, keys []SortKey) (*column.Batch, SortStats, error) {
	n := b.NumRows()
	if len(keys) == 0 || n <= 1 {
		return b, SortStats{Strategy: SortStrategyNone, Rows: n}, nil
	}
	keyData, err := evalSortKeys(b, keys)
	if err != nil {
		return nil, SortStats{}, err
	}
	sel := selAll(n)
	strategy, err := sortSel(ctx, keyData, sel)
	if err != nil {
		return nil, SortStats{}, err
	}
	return b.Gather(sel), SortStats{Strategy: strategy, Rows: n}, nil
}

// Limit returns at most n leading rows of the batch as a prefix view (no
// gather, no copying; the result shares the input's column vectors).
func Limit(b *column.Batch, n int64) *column.Batch {
	if n < 0 || int64(b.NumRows()) <= n {
		return b
	}
	return b.Slice(int(n))
}

// Project evaluates each expression over the batch and returns them as a
// new batch under the given names.
func Project(b *column.Batch, exprs []sql.Expr, names []string) (*column.Batch, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: project has %d exprs and %d names", len(exprs), len(names))
	}
	cols := make([]*column.Column, len(exprs))
	for i, e := range exprs {
		c, err := Eval(e, b)
		if err != nil {
			return nil, err
		}
		cols[i] = c.WithName(names[i])
	}
	return column.NewBatch(cols...)
}

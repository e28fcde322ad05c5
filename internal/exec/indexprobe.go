package exec

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/sql"
)

// IndexProbeStage joins each morsel's live rows to a build side that is a
// stored table sorted on its one join key, and builds nothing: for each
// probe key it binary-searches the table's key vector for the rows holding
// that key, applies the build side's pushed-down predicates to that range
// with the kernels FilterStage uses, and assembles the matched left+right
// rows.
//
// Its output is, row for row and bit for bit, what ProbeStage emits over the
// same table filtered in advance: a key's rows are one ascending range of
// the sorted table, the predicates keep an ascending subset of it, and a
// hash chain walks the same build rows in the same ascending order. Process
// only reads the table, so it is safe for concurrent use; the stage
// reserves nothing from any ledger.
type IndexProbeStage struct {
	right      *column.Batch
	carried    *column.Batch // the right columns a match carries
	lkey, rkey string
	keys       []int64 // right's key vector: null-free, non-decreasing
	preds      []sql.Expr

	in, out, examined atomic.Int64
}

// NewIndexProbeStage prepares the index probe of right on rightKey — a
// column the caller knows to be null-free and non-decreasing (the catalog
// snapshot's sorted flags say which are) — for morsels shaped like
// leftProto, keeping the right rows that satisfy preds. Both keys must be
// integer-family. A match carries the right columns named in cols (nil:
// every one) but the key; preds may read any column of right.
//
// A predicate that cannot evaluate over right's column types fails here,
// before any probe row flows: the hash path filters its whole build side
// before it builds, so it reports such an error even when no probe row
// would have reached the table. Whether a filter reaches that predicate
// depends on the rows the ones before it keep, so the stage then runs the
// predicates over the whole table, and fails exactly when that fails.
func NewIndexProbeStage(leftProto, right *column.Batch, leftKey, rightKey string, preds []sql.Expr, cols []string) (*IndexProbeStage, error) {
	lkc, err := keyColumns(leftProto, []string{leftKey})
	if err != nil {
		return nil, err
	}
	rkc, err := keyColumns(right, []string{rightKey})
	if err != nil {
		return nil, err
	}
	if lt, rt := lkc[0].Type(), rkc[0].Type(); !lt.IntFamily() || !rt.IntFamily() {
		return nil, fmt.Errorf("exec: index probe needs integer-family keys, got %v and %v", lt, rt)
	}
	empty := right.Range(0, 0)
	for _, p := range preds {
		if _, err := evalPredSel(p, empty, nil); err != nil {
			if _, err := selectWhere(preds, right, nil); err != nil {
				return nil, err
			}
			break
		}
	}
	carried := right
	if cols != nil {
		carried = right.Select(cols)
	}
	return &IndexProbeStage{right: right, carried: carried, lkey: leftKey, rkey: rightKey, keys: rkc[0].Int64s(), preds: preds}, nil
}

// Label implements PipeStage. The "probe " prefix files the stage's span
// with the hash probe's.
func (s *IndexProbeStage) Label() string { return "probe " + s.lkey + " (index " + s.rkey + ")" }

// Rows implements PipeStage (in = rows probed, out = matches).
func (s *IndexProbeStage) Rows() (int64, int64) { return s.in.Load(), s.out.Load() }

// Examined returns how many table rows the probe looked at: the rows of
// every key range it searched out, each range counted once per run of equal
// probe keys.
func (s *IndexProbeStage) Examined() int64 { return s.examined.Load() }

// Proto returns the stage's output schema for a given input schema.
func (s *IndexProbeStage) Proto(leftProto *column.Batch) (*column.Batch, error) {
	return assembleJoin(leftProto, s.carried, []string{s.rkey}, nil, nil)
}

// Process implements PipeStage.
func (s *IndexProbeStage) Process(m Morsel) (Morsel, error) {
	s.in.Add(int64(m.Rows()))
	lsel, rsel, err := s.probe(m)
	if err != nil {
		return Morsel{}, err
	}
	s.out.Add(int64(len(lsel)))
	if len(lsel) == 0 {
		return Morsel{}, nil
	}
	out, err := assembleJoin(m.B, s.carried, []string{s.rkey}, lsel, rsel)
	if err != nil {
		return Morsel{}, err
	}
	return Morsel{B: out}, nil
}

// probe returns the matched (left, right) row pairs of m's live rows in
// left-row order, each left row's matches ascending. A null key matches
// nothing. Consecutive live rows with one key — a key in run form, a
// repeated one — reuse the first one's search and filter.
func (s *IndexProbeStage) probe(m Morsel) (lsel, rsel []int32, err error) {
	kc, err := keyColumns(m.B, []string{s.lkey})
	if err != nil {
		return nil, nil, err
	}
	lk, nulls := kc[0].Int64s(), kc[0].Nulls()
	var (
		examined int64
		searched bool
		key      int64
		lo, hi   int
		kept     []int32 // offsets from lo of the range's passing rows; nil = all of them
	)
	for i, n := 0, m.Rows(); i < n; i++ {
		row := liveRow(m.Sel, i)
		if nulls != nil && nulls[row] {
			continue
		}
		if v := lk[row]; !searched || v != key {
			searched, key = true, v
			lo, hi = s.bounds(v)
			examined += int64(hi - lo)
			kept = nil
			if lo < hi && len(s.preds) > 0 {
				// FilterStage's predicate loop over a view of the range.
				if kept, err = selectWhere(s.preds, s.right.Range(lo, hi), nil); err != nil {
					return nil, nil, err
				}
			}
		}
		if kept == nil {
			for r := lo; r < hi; r++ {
				lsel = append(lsel, int32(row))
				rsel = append(rsel, int32(r))
			}
			continue
		}
		for _, off := range kept {
			lsel = append(lsel, int32(row))
			rsel = append(rsel, int32(lo)+off)
		}
	}
	s.examined.Add(examined)
	return lsel, rsel, nil
}

// bounds returns the table rows [lo, hi) whose key is v.
func (s *IndexProbeStage) bounds(v int64) (lo, hi int) {
	lo, found := slices.BinarySearch(s.keys, v)
	if !found {
		return lo, lo
	}
	if v == math.MaxInt64 {
		return lo, len(s.keys)
	}
	n, _ := slices.BinarySearch(s.keys[lo:], v+1)
	return lo, lo + n
}

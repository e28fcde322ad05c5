package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/column"
)

// DefaultMorselRows is the row-range granularity the pool hands to workers.
// Large enough that per-morsel dispatch cost vanishes against kernel work,
// small enough that an uneven predicate (one selective range, one not)
// still load-balances across workers by stealing.
const DefaultMorselRows = 16384

// Pool is the morsel-driven parallel execution layer: RunPipeline drives
// push pipelines over it (pipeline.go), and the pipeline breakers — join
// build and grace-hash probe, sort, gather — partition their input into
// contiguous row-range morsels that workers pull from a shared atomic
// cursor (dynamic stealing, no static assignment). Per-morsel results are
// placed by morsel index and concatenated in order, so every operator's
// output is bit-identical to the serial engine's — see doc.go for the
// determinism argument.
//
// A nil *Pool and a 1-worker pool both mean the serial engine. Pools hold
// no goroutines between calls and are safe for concurrent use by multiple
// queries.
type Pool struct {
	workers int
	morsel  int // rows per morsel; 0 = DefaultMorselRows (tests shrink it)
}

// NewPool returns a pool with the given worker count. workers <= 0 selects
// GOMAXPROCS; workers == 1 yields the serial engine.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// NewPoolMorsel returns a pool with an explicit morsel size in rows
// (<= 0 keeps DefaultMorselRows). Exposed so callers can shrink morsels —
// the oracle matrix tests exercise pipelines at tiny sizes.
func NewPoolMorsel(workers, morselRows int) *Pool {
	p := NewPool(workers)
	if morselRows > 0 {
		p.morsel = morselRows
	}
	return p
}

// MorselRows returns the pool's morsel size in rows.
func (p *Pool) MorselRows() int {
	if p == nil {
		return DefaultMorselRows
	}
	return p.morselRows()
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// orSerial returns p, or a one-worker pool when p is nil — the memory
// governor's spill path runs the partitioned join build on it even under
// the serial engine.
func (p *Pool) orSerial() *Pool {
	if p == nil {
		return &Pool{workers: 1}
	}
	return p
}

// morselRows returns the configured morsel size.
func (p *Pool) morselRows() int {
	if p.morsel > 0 {
		return p.morsel
	}
	return DefaultMorselRows
}

// serialFor reports whether n rows should run on the serial engine: no
// pool, a single worker, or an input that fits in one morsel (parallelism
// would be pure overhead).
func (p *Pool) serialFor(n int) bool {
	return p == nil || p.workers <= 1 || n <= p.morselRows()
}

// morselCount returns the number of morsels covering n rows.
func (p *Pool) morselCount(n int) int {
	mr := p.morselRows()
	return (n + mr - 1) / mr
}

// morselBounds returns the row window [lo, hi) of morsel mi over n rows.
func (p *Pool) morselBounds(mi, n int) (lo, hi int) {
	mr := p.morselRows()
	lo = mi * mr
	hi = lo + mr
	if hi > n {
		hi = n
	}
	return lo, hi
}

// run executes fn(0) .. fn(tasks-1), each exactly once, across the pool's
// workers. Workers claim task indices from an atomic cursor; fn must write
// only to its own task's output slot, which is what makes the result
// deterministic regardless of scheduling.
func (p *Pool) run(tasks int, fn func(int)) {
	w := p.workers
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= tasks {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// firstError returns the lowest-indexed non-nil error, so a failing
// parallel operator reports the same error the serial engine would (the
// earliest row range's).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatSel concatenates per-morsel selection vectors in morsel order,
// which reproduces the serial engine's single ascending vector (each part
// holds batch-absolute indices of a disjoint, increasing row range).
func concatSel(parts [][]int32) []int32 {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]int32, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// gather is Batch.Gather parallelized over chunks of the selection vector:
// output vectors are preallocated and every worker writes a disjoint row
// window of each column, so the result is identical to the serial gather.
func (p *Pool) gather(b *column.Batch, sel []int32) *column.Batch {
	if p.serialFor(len(sel)) {
		return b.Gather(sel)
	}
	nc := b.NumCols()
	type colOut struct {
		src   *column.Column
		ints  []int64
		fls   []float64
		strs  []string
		nulls []bool
	}
	outs := make([]colOut, nc)
	for ci := 0; ci < nc; ci++ {
		c := b.ColAt(ci)
		o := colOut{src: c}
		switch c.Type() {
		case column.Float64:
			o.fls = make([]float64, len(sel))
		case column.String:
			o.strs = make([]string, len(sel))
		default:
			o.ints = make([]int64, len(sel))
		}
		if c.Nulls() != nil {
			o.nulls = make([]bool, len(sel))
		}
		outs[ci] = o
	}
	mcount := p.morselCount(len(sel))
	p.run(mcount, func(mi int) {
		lo, hi := p.morselBounds(mi, len(sel))
		for ci := range outs {
			o := &outs[ci]
			switch o.src.Type() {
			case column.Float64:
				src := o.src.Float64s()
				for i := lo; i < hi; i++ {
					o.fls[i] = src[sel[i]]
				}
			case column.String:
				src := o.src.Strings()
				for i := lo; i < hi; i++ {
					o.strs[i] = src[sel[i]]
				}
			default:
				src := o.src.Int64s()
				for i := lo; i < hi; i++ {
					o.ints[i] = src[sel[i]]
				}
			}
			if o.nulls != nil {
				src := o.src.Nulls()
				for i := lo; i < hi; i++ {
					o.nulls[i] = src[sel[i]]
				}
			}
		}
	})
	cols := make([]*column.Column, nc)
	for ci, o := range outs {
		var c *column.Column
		switch o.src.Type() {
		case column.Float64:
			c = column.NewFloat64s(o.src.Name(), o.fls)
		case column.String:
			c = column.NewStrings(o.src.Name(), o.strs)
		default:
			c = column.NewIntFamily(o.src.Name(), o.src.Type(), o.ints)
		}
		c.SetNulls(o.nulls)
		cols[ci] = c
	}
	return column.MustNewBatch(cols...)
}

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

// HashJoinMem performs an inner equi-join of left and right on the named key
// columns (leftKeys[i] pairs with rightKeys[i]). The output holds all left
// columns followed by all right columns except the right keys, which
// duplicate the left ones; the table is built on the right input and output
// order follows the left, so metadata-first plans produce deterministically
// ordered intermediates. A nil pool runs it serially; a nil qm, unbounded.
//
// It is morsel-driven under the memory governor: the flat open-addressing
// build table is radix-partitioned across workers when the build side
// exceeds one morsel (each partition built privately in serial row order, so
// chains — and therefore probe output — match the serial single-table build
// exactly), then workers probe disjoint left row ranges against the
// read-only table and the per-range match lists concatenate in range order —
// the serial probe order. Both output gathers run on the pool.
//
// Under a finite qm budget, build partitions whose memory grant is denied
// spill their rows to disk (grace hash); the probe rebuilds them strictly
// one at a time and merges their matches back into left-row order, so the
// output is bit-identical to the unbounded in-memory path at every budget,
// worker count and morsel size.
func (p *Pool) HashJoinMem(qm *QueryMem, left, right *column.Batch, leftKeys, rightKeys []string) (*column.Batch, JoinStats, error) {
	jt, err := buildJoinTable(left, right, leftKeys, rightKeys, p, qm)
	if err != nil {
		return nil, JoinStats{}, err
	}
	defer jt.grant.Close()
	lsel, rsel, err := jt.probeAll(p, left)
	if err != nil {
		return nil, jt.stats, err
	}
	jt.stats.ProbeRows = left.NumRows()
	jt.stats.Matches = len(lsel)
	out, err := assembleJoin(left, right, rightKeys, lsel, rsel, p)
	return out, jt.stats, err
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// SortWithStats is the morsel-driven Sort. Comparator-sorted keys (float,
// string, multi-key) are sorted per contiguous morsel row range
// independently — the same sortSel the serial engine runs — then the
// sorted runs merge pairwise across the pool; stable runs merged with
// left-run-wins ties reproduce the stable sort of the whole input, so the
// output is bit-identical to the serial engine's at every worker count and
// morsel size. A single integer-family key instead runs one whole-batch
// LSD radix sort (merging cannot beat its linear passes) with the output
// gather on the pool — the identical permutation by construction.
func (p *Pool) SortWithStats(b *column.Batch, keys []SortKey) (*column.Batch, SortStats, error) {
	n := b.NumRows()
	if p.serialFor(n) {
		return sortSerial(b, keys)
	}
	if len(keys) == 0 {
		return b, SortStats{Strategy: SortStrategyNone, Rows: n}, nil
	}
	keyData, err := evalSortKeys(b, keys)
	if err != nil {
		return nil, SortStats{}, err
	}
	if radixEligible(keyData) || !mergeSafe(keyData) {
		// Two reasons to sort as one run. (1) A radix-eligible key: LSD
		// radix is a linear, branch-light pass over the whole input, and
		// log-rounds of comparator merges over n rows cost more than the
		// radix passes they would save — whole-batch radix wins outright
		// (the output gather still runs on the pool). (2) A NaN in a float
		// key ties with everything under the engine's comparison
		// convention, so the key ordering is not transitive and merging
		// independently sorted runs may legitimately produce a different
		// permutation than one whole-input stable sort. Either way a
		// single sortSel run is exactly the serial engine's permutation.
		sel := selAll(n)
		strategy := sortSel(keyData, sel)
		return p.gather(b, sel), SortStats{Strategy: strategy, Runs: 1, Rows: n}, nil
	}
	mcount := p.morselCount(n)
	sel := selAll(n)
	bounds := make([]int, mcount+1)
	p.run(mcount, func(mi int) {
		lo, hi := p.morselBounds(mi, n)
		bounds[mi+1] = hi
		// Necessarily the comparator path: radix-eligible keys took the
		// single-run branch above.
		sortSel(keyData, sel[lo:hi])
	})
	sel = p.mergeRuns(keyData, sel, bounds)
	st := SortStats{Strategy: SortStrategyComparator, Runs: mcount, Rows: n}
	return p.gather(b, sel), st, nil
}

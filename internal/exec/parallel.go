package exec

import (
	"context"
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

// Pool is the morsel-driven parallel execution layer, used in three places:
// RunPipeline drives push pipelines over it (pipeline.go), the
// radix-partitioned hash-join build splits its input into contiguous
// row-range morsels that workers pull from a shared atomic cursor (dynamic
// stealing, no static assignment), and the metadata load header-scans its
// files as Run tasks. Per-morsel results are placed by morsel index, so the
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

// Run executes fn(0) .. fn(tasks-1), each exactly once, across the pool's
// workers, and returns the lowest-indexed task's error — a panic in fn is
// recovered into a *PanicError and is that task's error — once every worker
// has exited. Workers claim task indices from an atomic cursor; fn must
// write only to its own task's output slot, which is what makes the result
// deterministic regardless of scheduling.
func (p *Pool) Run(tasks int, fn func(int) error) error {
	errs := make([]error, tasks)
	task := func(i int) {
		defer RecoverTo(&errs[i])
		errs[i] = fn(i)
	}
	w := p.workers
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for i := 0; i < tasks; i++ {
			task(i)
		}
		return firstError(errs)
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
				task(i)
			}
		}()
	}
	wg.Wait()
	return firstError(errs)
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

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

// HashJoinMem performs an inner equi-join of left and right on the named key
// columns (leftKeys[i] pairs with rightKeys[i]). The output holds all left
// columns followed by all right columns except the right keys, which
// duplicate the left ones; the table is built on the right input and output
// order follows the left, so metadata-first plans produce deterministically
// ordered intermediates. A nil pool builds serially; a nil qm, unbounded.
//
// It is the tests' reference join; no production code calls it. The flat
// open-addressing build table is radix-partitioned across the pool's
// workers when the build side exceeds one morsel (each partition built
// privately in serial row order, so chains — and therefore probe output —
// match the serial single-table build exactly); the probe and both output
// gathers then run serially, in left row order.
//
// Under a finite qm budget, build partitions whose memory grant is denied
// spill their rows to disk (grace hash); the probe rebuilds them strictly
// one at a time and merges their matches back into left-row order, so the
// output is bit-identical to the unbounded in-memory path at every budget,
// worker count and morsel size.
func (p *Pool) HashJoinMem(qm *QueryMem, left, right *column.Batch, leftKeys, rightKeys []string) (*column.Batch, JoinStats, error) {
	ctx := context.Background()
	jt, err := buildJoinTable(ctx, left, right, leftKeys, rightKeys, p, qm)
	if err != nil {
		return nil, JoinStats{}, err
	}
	defer jt.grant.Close()
	lsel, rsel, err := jt.probeAll(ctx, left)
	if err != nil {
		return nil, jt.stats, err
	}
	jt.stats.ProbeRows = left.NumRows()
	jt.stats.Matches = len(lsel)
	out, err := assembleJoin(left, right, rightKeys, lsel, rsel)
	return out, jt.stats, err
}

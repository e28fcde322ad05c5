package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

func TestPoolWorkerCounts(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool workers = %d, want 1", got)
	}
	if got := NewPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0) workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(5).Workers(); got != 5 {
		t.Fatalf("NewPool(5) workers = %d", got)
	}
	if !nilPool.serialFor(1 << 30) {
		t.Fatal("nil pool must always be serial")
	}
	if !NewPool(8).serialFor(DefaultMorselRows) {
		t.Fatal("a single-morsel input must run serial")
	}
	if NewPool(8).serialFor(DefaultMorselRows + 1) {
		t.Fatal("a multi-morsel input must run parallel")
	}
}

// TestPoolRunEachTaskOnce checks the work-stealing dispatch: every task
// index runs exactly once, whatever the worker/task ratio.
func TestPoolRunEachTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16} {
		for _, tasks := range []int{0, 1, 7, 64, 1000} {
			p := &Pool{workers: workers}
			counts := make([]int32, tasks)
			p.run(tasks, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, c)
				}
			}
		}
	}
}

func TestMorselBoundsCoverInput(t *testing.T) {
	p := &Pool{workers: 4, morsel: 13}
	for _, n := range []int{0, 1, 12, 13, 14, 26, 100, 1000} {
		mcount := p.morselCount(n)
		covered := 0
		for mi := 0; mi < mcount; mi++ {
			lo, hi := p.morselBounds(mi, n)
			if lo != covered || hi <= lo || hi > n {
				t.Fatalf("n=%d morsel %d: bounds [%d,%d) after covering %d", n, mi, lo, hi, covered)
			}
			covered = hi
		}
		if covered != n {
			t.Fatalf("n=%d: morsels cover %d rows", n, covered)
		}
	}
}

// TestPoolSharedAcrossGoroutines runs concurrent pipelines on one shared
// pool — the shape a multi-query warehouse produces — and checks every
// result against the serial engine. Run under -race this doubles as the
// engine's data-race probe.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	p := &Pool{workers: 4, morsel: 64}
	b := benchBatch(5000)
	pred := mustExpr(t, "v > 0 AND station = 'ISK' OR file_id < 7")
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "station"}}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "cnt"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "avg_v"},
	}
	wantFilter, err := Filter(b, []sql.Expr{pred})
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, err := Aggregate(b, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				fb, err := pipeFilter(p, b, []sql.Expr{pred})
				if err != nil {
					errs <- err.Error()
					return
				}
				if diff, ok := bitIdenticalBatches(fb, wantFilter); !ok {
					errs <- "filter: " + diff
					return
				}
				ab, err := pipeAggregate(p, nil, b, groupBy, aggs)
				if err != nil {
					errs <- err.Error()
					return
				}
				if diff, ok := bitIdenticalBatches(ab, wantAgg); !ok {
					errs <- "aggregate: " + diff
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPoolFilterErrorMatchesSerial checks that a failing predicate reports
// the same error through a parallel pipeline as through the serial Filter.
func TestPoolFilterErrorMatchesSerial(t *testing.T) {
	p := &Pool{workers: 4, morsel: 16}
	b := benchBatch(1000)
	bad := []sql.Expr{&sql.Binary{Op: sql.OpGt, L: &sql.ColumnRef{Name: "nope"}, R: &sql.Literal{Val: column.NewInt64(0)}}}
	_, serialErr := Filter(b, bad)
	_, parErr := pipeFilter(p, b, bad)
	if serialErr == nil || parErr == nil {
		t.Fatalf("expected errors, got serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error mismatch:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

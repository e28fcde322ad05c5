package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/mem"
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
			err := p.Run(tasks, func(i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d tasks=%d: %v", workers, tasks, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, c)
				}
			}
		}
	}
}

// waitGoroutines fails t when more goroutines than base are still running
// two seconds on: something the call under test started outlived it.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive the call (%d before)", what, runtime.NumGoroutine(), base)
		}
	}
}

// TestPoolRunPanicContainment: a panic in any task comes back from run as a
// *PanicError with the value and the stack, the lowest failing task index
// wins whether it panicked or returned an error, every task still runs
// once, and no worker outlives the call.
func TestPoolRunPanicContainment(t *testing.T) {
	const tasks = 40
	cases := []struct {
		name   string
		fail   map[int]string // task -> "panic:<v>" or "error:<v>"
		panics bool
		want   string
	}{
		{"panic in task 0", map[int]string{0: "panic:first"}, true, "first"},
		{"panic in a later task", map[int]string{29: "panic:later"}, true, "later"},
		{"two panics", map[int]string{31: "panic:b", 7: "panic:a"}, true, "a"},
		{"panic before an error", map[int]string{3: "panic:p", 20: "error:e"}, true, "p"},
		{"error before a panic", map[int]string{20: "panic:p", 3: "error:e"}, false, "e"},
	}
	for _, workers := range []int{1, 2, 8} {
		p := &Pool{workers: workers}
		for _, c := range cases {
			name := fmt.Sprintf("workers=%d, %s", workers, c.name)
			base := runtime.NumGoroutine()
			var ran atomic.Int32
			err := p.Run(tasks, func(i int) error {
				ran.Add(1)
				kind, v, _ := strings.Cut(c.fail[i], ":")
				switch kind {
				case "panic":
					panic(v)
				case "error":
					return errors.New(v)
				}
				return nil
			})
			var pe *PanicError
			switch {
			case c.panics && (!errors.As(err, &pe) || pe.Value != c.want || !strings.Contains(string(pe.Stack), "goroutine")):
				t.Errorf("%s: want a PanicError of %q with a stack, got %v", name, c.want, err)
			case !c.panics && (err == nil || err.Error() != c.want || errors.As(err, &pe)):
				t.Errorf("%s: want the error %q, got %v", name, c.want, err)
			}
			if ran.Load() != tasks {
				t.Errorf("%s: %d of %d tasks ran", name, ran.Load(), tasks)
			}
			waitGoroutines(t, base, name)
		}
	}
}

// TestJoinBuildPanicContainment: a panic in any of the partitioned join
// build's three passes, in its first task or a later one, is the build's
// *PanicError. No goroutine outlives the build, every partition grant is
// back on the ledger, and the next join on the same pool is bit-identical
// to the serial reference. The budget denies the single-table grant, so
// even one worker takes the partitioned build, and some partitions spill.
func TestJoinBuildPanicContainment(t *testing.T) {
	defer func() { buildTaskHook = func(int, int) {} }()
	left, right := spillJoinInputs(rand.New(rand.NewSource(5)), 1000, 1800)
	lk, rk := []string{"lid"}, []string{"rid"}
	want, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, lk, rk)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		p := &Pool{workers: workers, morsel: 61}
		for pass := 1; pass <= 3; pass++ {
			for _, at := range []int{0, 3} {
				name := fmt.Sprintf("workers=%d, pass %d task %d", workers, pass, at)
				led := mem.New(midBudget)
				qm := NewQueryMem(led, t.TempDir())
				base := runtime.NumGoroutine()
				buildTaskHook = func(ps, task int) {
					if ps == pass && task == at {
						panic("build boom")
					}
				}
				_, err := BuildProbeTable(context.Background(), left.Range(0, 0), right, lk, rk, p, qm)
				buildTaskHook = func(int, int) {}
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Value != "build boom" {
					t.Errorf("%s: want the build's PanicError, got %v", name, err)
				}
				waitGoroutines(t, base, name)
				if used := led.Used(); used != 0 {
					t.Errorf("%s: ledger holds %d bytes after the failed build", name, used)
				}
				qm.Cleanup()

				qm = NewQueryMem(mem.New(midBudget), t.TempDir())
				got, js, err := p.HashJoinMem(qm, left, right, lk, rk)
				qm.Cleanup()
				if err != nil {
					t.Fatalf("%s: next join: %v", name, err)
				}
				if js.SpilledPartitions == 0 || js.SpilledPartitions == js.Partitions {
					t.Errorf("%s: next join spilled %d of %d partitions; want some resident, some spilled", name, js.SpilledPartitions, js.Partitions)
				}
				if diff, ok := bitIdenticalBatches(got, want); !ok {
					t.Errorf("%s: next join diverged: %s", name, diff)
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

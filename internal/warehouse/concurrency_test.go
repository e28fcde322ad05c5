package warehouse

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentQueries fires parallel clients at one lazy warehouse (with
// a four-worker pool, so four prefetch workers per extraction) and checks every answer for consistency: absence
// of races and corruption across the cache, the log and the stats under
// churn, with queries genuinely executing concurrently.
func TestConcurrentQueries(t *testing.T) {
	dir := genRepo(t, 2500)
	w, err := Open(dir, Options{Mode: Lazy, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		q2,
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
		`SELECT F.channel, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.channel`,
		`SELECT station, COUNT(*) FROM mseed.files GROUP BY station`,
	}
	// Reference answers, computed single-threaded.
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := w.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Batch.String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (g + i) % len(queries)
				res, err := w.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if res.Batch.String() != want[qi] {
					errs <- errMismatch{queries[qi], want[qi], res.Batch.String()}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Queries != int64(len(queries)+64) {
		t.Errorf("query counter = %d, want %d", st.Queries, len(queries)+64)
	}
}

type errMismatch struct{ q, want, got string }

func (e errMismatch) Error() string {
	return "concurrent query mismatch for " + e.q + ":\nwant:\n" + e.want + "\ngot:\n" + e.got
}

// TestParallelExtractionThroughWarehouse sanity-checks the parallel
// extractor end to end through the warehouse (correctness, not timing —
// CI machines make timing assertions flaky): a one-worker pool, whose one
// prefetch worker decodes the runs in order, against an eight-worker pool
// with eight.
func TestParallelExtractionThroughWarehouse(t *testing.T) {
	dir := genRepo(t, 4000)
	seq, err := Open(dir, Options{Mode: Lazy, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Open(dir, Options{Mode: Lazy, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview`
	rs, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, rs.Batch, rp.Batch)
	if len(rs.Trace.TouchedFiles) != len(rp.Trace.TouchedFiles) {
		t.Errorf("touched files differ: %d vs %d",
			len(rs.Trace.TouchedFiles), len(rp.Trace.TouchedFiles))
	}
	// The parallel trace records the same set of injected operators,
	// possibly in a different order.
	sops, pops := rs.Trace.RuntimeOps(), rp.Trace.RuntimeOps()
	if len(sops) != len(pops) {
		t.Errorf("injected ops differ: %d vs %d", len(sops), len(pops))
	}
	sortStrings(sops)
	sortStrings(pops)
	for i := range sops {
		if sops[i] != pops[i] {
			t.Fatalf("op %d differs: %q vs %q", i, sops[i], pops[i])
		}
	}
	if !strings.Contains(sops[0], "seq=") {
		t.Errorf("unexpected op format: %q", sops[0])
	}
}

// concurrencyQueries is the mixed query set the interleaving tests drive:
// metadata-only scans, lazy extraction, grouping and ordering.
var concurrencyQueries = []string{
	q2,
	`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
	`SELECT F.channel, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.channel`,
	`SELECT station, COUNT(*) FROM mseed.files GROUP BY station`,
	`SELECT station, channel FROM mseed.files ORDER BY station, channel LIMIT 7`,
}

// TestInterleavedQueryRefreshStatsClearLog is the full-surface interleaving
// matrix: Query, Refresh, Stats and ClearLog race each other across
// goroutines at several worker counts and memory budgets, and every answer
// must stay bit-identical to the serial baseline computed up front. The
// repository content does not change between refreshes, so a refresh
// landing mid-stream must be answer-invisible.
func TestInterleavedQueryRefreshStatsClearLog(t *testing.T) {
	dir := genRepo(t, 2500)
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 2 << 20} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				w, err := Open(dir, Options{
					Mode:         Lazy,
					Workers:      workers,
					MemoryBudget: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Serial baseline answers.
				want := make([]string, len(concurrencyQueries))
				for i, q := range concurrencyQueries {
					res, err := w.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = res.Batch.String()
				}

				const clients = 8
				var wg sync.WaitGroup
				errs := make(chan error, clients+2)
				stop := make(chan struct{})
				for g := 0; g < clients; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 6; i++ {
							qi := (g + i) % len(concurrencyQueries)
							res, err := w.Query(concurrencyQueries[qi])
							if err != nil {
								errs <- err
								return
							}
							if res.Batch.String() != want[qi] {
								errs <- errMismatch{concurrencyQueries[qi], want[qi], res.Batch.String()}
								return
							}
						}
					}(g)
				}
				// Refresher and log churner race the clients; the stats
				// reader spins until they all exit.
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if _, err := w.Refresh(); err != nil {
							errs <- err
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						w.ClearLog()
					}
				}()
				statsDone := make(chan error, 1)
				go func() {
					for {
						select {
						case <-stop:
							statsDone <- nil
							return
						default:
						}
						st := w.Stats()
						if st.FilesRows < 0 || st.StoreBytes < 0 {
							statsDone <- fmt.Errorf("implausible stats: %+v", st)
							return
						}
						_ = w.Log()
					}
				}()
				wg.Wait()
				close(stop)
				if err := <-statsDone; err != nil {
					t.Fatal(err)
				}
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				if got, wantQ := w.Stats().Queries, int64(len(concurrencyQueries)+clients*6); got != wantQ {
					t.Errorf("query counter = %d, want %d", got, wantQ)
				}
				// With queries drained, the only live reservations are the
				// recycler cache's admissions and the result cache's
				// entries: operator sub-ledgers must have released
				// everything back to the shared ledger.
				if st := w.Stats(); st.Mem.Used != st.CacheBytes+st.QueryCache.ResultBytes {
					t.Errorf("ledger holds %d bytes after drain, caches account for %d+%d",
						st.Mem.Used, st.CacheBytes, st.QueryCache.ResultBytes)
				}
			})
		}
	}
}

// TestStatsRaceRegression hammers Stats against concurrent Query and
// Refresh. Before the concurrency rework, Stats read w.queries and the
// store row counts with no synchronization — a data race the global query
// mutex happened to hide. Run under -race this is the regression test.
func TestStatsRaceRegression(t *testing.T) {
	dir := genRepo(t, 1500)
	w, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	hammerDone := make(chan struct{})
	go func() { // stats hammer, released once the workers finish
		defer close(hammerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := w.Stats()
			if st.Queries < 0 {
				panic("negative query count")
			}
		}
	}()
	var wg sync.WaitGroup
	var qerr, rerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := w.Query(concurrencyQueries[i%len(concurrencyQueries)]); err != nil {
				qerr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := w.Refresh(); err != nil {
				rerr = err
				return
			}
		}
	}()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: queries/refreshes did not finish")
	}
	close(stop)
	<-hammerDone
	if qerr != nil {
		t.Fatal(qerr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestSerializeQueriesOracle checks one-query-at-a-time serving
// (MaxConcurrentQueries: 1) answers exactly like the concurrent path.
func TestSerializeQueriesOracle(t *testing.T) {
	dir := genRepo(t, 1500)
	ser, err := Open(dir, Options{Mode: Lazy, MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	con, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range concurrencyQueries {
		rs, err := ser.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := con.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Batch.String() != rc.Batch.String() {
			t.Fatal(errMismatch{q, rs.Batch.String(), rc.Batch.String()})
		}
	}
}

// TestKeepLogBounds pins the operation-log trim behavior: the log must
// never exceed its bound (the old trim let a bound of 1 grow to 2), and the
// newest entry always survives the trim.
func TestKeepLogBounds(t *testing.T) {
	dir := genRepo(t, 800)
	for _, keep := range []int{1, 2, maxLogEntries} {
		w, err := Open(dir, Options{Mode: Lazy})
		if err != nil {
			t.Fatal(err)
		}
		w.keepLog = keep
		for i := 0; i < 25; i++ {
			w.logf("test", "entry %d", i)
			if n := len(w.Log()); n > keep {
				t.Fatalf("keepLog=%d: log grew to %d entries", keep, n)
			}
		}
		log := w.Log()
		if got := log[len(log)-1].Detail; got != "entry 24" {
			t.Errorf("keepLog=%d: newest entry is %q, want \"entry 24\"", keep, got)
		}
	}
}

// TestFailedQueryLogsError checks that every failure path of Query leaves
// an "error" entry in the operation log, so failures are attributable when
// many clients share one log.
func TestFailedQueryLogsError(t *testing.T) {
	dir := genRepo(t, 800)
	w, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"SELEC nonsense",                         // parse error
		"SELECT foo FROM mseed.no_such_table",    // plan error (unknown table)
		"SELECT no_such_column FROM mseed.files", // plan/exec error (unknown column)
	}
	for _, q := range cases {
		w.ClearLog()
		if _, err := w.Query(q); err == nil {
			t.Fatalf("query %q unexpectedly succeeded", q)
		}
		var found bool
		for _, e := range w.Log() {
			if e.Op == "error" && strings.Contains(e.Detail, "query failed") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no error log entry after failed query %q; log: %v", q, w.Log())
		}
	}
}

// ClearLog empties the operation log; the concurrency tests race it
// against queries, refreshes and Stats.
func (w *Warehouse) ClearLog() {
	w.logMu.Lock()
	defer w.logMu.Unlock()
	w.log = w.log[:0]
}

package lazyetl_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	lazyetl "repro"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/sql"
)

// referenceQuery answers q on the operator-at-a-time reference: the plan w
// builds for it, run by reference.Execute over a snapshot of w's store and
// w's extraction engine, with pool as the join builds' and the extraction's
// width (nil = serial).
func referenceQuery(w *lazyetl.Warehouse, q string, pool *exec.Pool) (*column.Batch, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	plans, err := plan.Build(stmt, w.Catalog(), w.Mode())
	if err != nil {
		return nil, err
	}
	return reference.Execute(plans.Root, &plan.Env{Store: w.Store().Snapshot(), Source: w.Engine(), Pool: pool})
}

// genRepo builds a small deterministic repository for public-API tests.
func genRepo(t testing.TB, cfg lazyetl.RepoConfig) string {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.SamplesPerDay == 0 {
		cfg.SamplesPerDay = 4000
	}
	if _, err := lazyetl.GenerateRepository(cfg); err != nil {
		t.Fatalf("GenerateRepository: %v", err)
	}
	return cfg.Dir
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(lazyetl.Figure1Q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.NumRows() != 4 { // 4 NL stations
		t.Fatalf("rows = %d\n%v", res.Batch.NumRows(), res.Batch)
	}
	if len(res.Trace.TouchedFiles) != 4 {
		t.Errorf("touched %d files, want 4", len(res.Trace.TouchedFiles))
	}
	st, ok := res.Batch.Col("F.station")
	if !ok {
		t.Fatal("no station column")
	}
	for _, s := range st.Strings() {
		if s == "ISK" {
			t.Error("ISK is not in the NL network")
		}
	}
}

func TestPublicAPIFigure1Q1(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{
		SampleRate:    1,
		SamplesPerDay: 24 * 3600,
	})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(lazyetl.Figure1Q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.NumRows() != 1 || res.Batch.Row(0)[0].Null {
		t.Fatalf("Q1 result: %v", res.Batch)
	}
}

func TestPublicAPIModesAgree(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	answers := map[lazyetl.Mode]string{}
	for _, mode := range []lazyetl.Mode{lazyetl.Eager, lazyetl.Lazy, lazyetl.External} {
		w, err := lazyetl.Open(dir, lazyetl.Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res, err := w.Query(`SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
			FROM mseed.dataview WHERE F.channel = 'BHE'`)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		answers[mode] = res.Batch.String()
	}
	if answers[lazyetl.Eager] != answers[lazyetl.Lazy] || answers[lazyetl.Lazy] != answers[lazyetl.External] {
		t.Errorf("modes disagree:\n%v", answers)
	}
}

// TestPublicAPIConcurrentQueryStress hammers one warehouse — morsel-driven
// parallel query engine plus parallel extraction — from many client
// goroutines at once, checking every answer against references computed up
// front. Queries serialize on the warehouse mutex by design, so this
// probes client-facing concurrency (log appends, stats counters, cache
// churn between queries) plus each query's internal worker fan-out under
// `go test -race`; engine-level pool sharing across simultaneous callers
// is covered by exec's TestPoolSharedAcrossGoroutines.
func TestPublicAPIConcurrentQueryStress(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	w, err := lazyetl.Open(dir, lazyetl.Options{
		Mode:    lazyetl.Lazy,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		lazyetl.Figure1Q2,
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
		`SELECT F.channel, COUNT(*), MIN(D.sample_value) FROM mseed.dataview
		 WHERE F.network = 'NL' GROUP BY F.channel`,
		`SELECT station, COUNT(*) FROM mseed.files GROUP BY station ORDER BY station`,
		`SELECT file_id, COUNT(*) FROM mseed.records GROUP BY file_id ORDER BY file_id LIMIT 5`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := w.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[i] = res.Batch.String()
	}

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				res, err := w.Query(queries[qi])
				if err != nil {
					errs <- queries[qi] + ": " + err.Error()
					return
				}
				if got := res.Batch.String(); got != want[qi] {
					errs <- "mismatch for " + queries[qi] + ":\nwant:\n" + want[qi] + "\ngot:\n" + got
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := w.Stats()
	if st.Queries != int64(len(queries)+clients*rounds) {
		t.Errorf("query counter = %d, want %d", st.Queries, len(queries)+clients*rounds)
	}
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}
}

func TestPublicAPIDetectEvents(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{
		Stations:      []lazyetl.Station{{Network: "NL", Code: "HGN"}},
		Channels:      []string{"BHZ"},
		SamplesPerDay: 60000,
		EventsPerDay:  1,
	})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(`SELECT D.sample_time, D.sample_value FROM mseed.dataview ORDER BY D.sample_time`)
	if err != nil {
		t.Fatal(err)
	}
	times, _ := res.Batch.Col("D.sample_time")
	values, _ := res.Batch.Col("D.sample_value")
	events, err := lazyetl.DetectEvents(times.Int64s(), values.Float64s(), lazyetl.EventConfig{
		SampleRate: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Error("no events detected in an event-bearing series")
	}
}

func TestPublicAPITraceAndLog(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(lazyetl.Figure1Q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Trace.Optimized(), "LazyExtract") {
		t.Error("optimized plan lacks LazyExtract")
	}
	if !strings.Contains(res.Trace.Naive(), "Scan mseed.data") {
		t.Error("naive plan lacks the data scan")
	}
	if len(w.Log()) == 0 {
		t.Error("empty log")
	}
}

func TestPublicAPIRefreshAfterUpdate(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(lazyetl.Figure1Q2); err != nil {
		t.Fatal(err)
	}
	// Touch one NL BHZ file; the next query must re-extract only it.
	victim := filepath.Join(dir, "NL", "WIT", "BHZ", "NL.WIT..BHZ.2010.012.mseed")
	now := time.Now().Add(time.Hour)
	if err := os.Chtimes(victim, now, now); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(lazyetl.Figure1Q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.TouchedFiles) != 1 || !strings.Contains(res.Trace.TouchedFiles[0], "WIT") {
		t.Errorf("touched %v, want only the WIT file", res.Trace.TouchedFiles)
	}
}

// TestSumOverflow: an integer SUM answers its exact value or fails — it
// never wraps. On genRepo's default repository SUM(D.sample_time) over ISK's
// 12,000 rows used to answer -4,170,228,739,251,428,553; SUM over TIMESTAMP
// is now a type error, through the pipeline and the operator-at-a-time
// reference alike. Over an Int64 column the sink (whole, cut into one-row morsels,
// under a selection, grouped) and the reference agree: a running total that
// wraps and comes back is exact, MaxInt64 + 1 is an error naming the SUM.
func TestSumOverflow(t *testing.T) {
	dir := genRepo(t, lazyetl.RepoConfig{})
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	const sumTime = "SELECT SUM(D.sample_time) FROM mseed.dataview WHERE F.station = 'ISK'"
	if res, err := w.Query(sumTime); err == nil {
		t.Errorf("pipeline: SUM(D.sample_time) answered %v, want a type error", res.Batch.Row(0))
	} else if !strings.Contains(err.Error(), "SUM over TIMESTAMP") {
		t.Errorf("pipeline: SUM(D.sample_time): %v, want a type error", err)
	}
	if b, err := referenceQuery(w, sumTime, nil); err == nil {
		t.Errorf("reference: SUM(D.sample_time) answered %v, want a type error", b.Row(0))
	} else if !strings.Contains(err.Error(), "SUM over TIMESTAMP") {
		t.Errorf("reference: SUM(D.sample_time): %v, want a type error", err)
	}

	const top = math.MaxInt64
	aggs := []exec.AggSpec{
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "x"}, OutName: "min_x"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "x"}, OutName: "sum_x"},
	}
	for _, tc := range []struct {
		vals []int64
		want string // the SUM, or the error
	}{
		{[]int64{top, 1}, "exec: SUM(x) overflows int64"},
		{[]int64{-top, -1, -1}, "exec: SUM(x) overflows int64"},
		{[]int64{top, 1, -2}, fmt.Sprint(int64(top - 1))},
		{[]int64{top, top, top, -top, -top, -top, 7}, "7"},
		{[]int64{-top, -1, 1}, fmt.Sprint(int64(-top))},
	} {
		n := len(tc.vals)
		b := column.MustNewBatch(column.NewInt64s("x", tc.vals), column.NewInt64s("k", make([]int64, n)))
		// The same values at the even rows of twice as many, for a sparse selection.
		spread := make([]int64, 2*n)
		for i, v := range tc.vals {
			spread[2*i], spread[2*i+1] = v, top/3
		}
		sb := column.MustNewBatch(column.NewInt64s("x", spread), column.NewInt64s("k", make([]int64, 2*n)))
		var runs []string
		for _, groupBy := range [][]sql.Expr{nil, {&sql.ColumnRef{Name: "k"}}} {
			sum := func(out *column.Batch, err error) string {
				if err != nil {
					return err.Error()
				}
				return out.ColAt(out.NumCols() - 1).Value(0).String()
			}
			runs = append(runs, sum(exec.Aggregate(b, groupBy, aggs)))
			for _, cut := range []int{n, 1} {
				// Every row, every row under a selection, every other row of sb.
				for step := 0; step <= 2; step++ {
					in, rows, width := b, n, cut
					if step == 2 {
						in, rows, width = sb, 2*n, 2*cut
					}
					s, err := exec.NewAggSink(in.Range(0, 0), groupBy, aggs, nil)
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < rows; lo += width {
						hi := min(lo+width, rows)
						m := exec.Morsel{B: in.Range(lo, hi)}
						for r := 0; step > 0 && r < hi-lo; r += step {
							m.Sel = append(m.Sel, int32(r))
						}
						if err := s.Consume(m); err != nil {
							t.Fatal(err)
						}
					}
					runs = append(runs, sum(s.Finish()))
				}
			}
		}
		for i, got := range runs {
			if got != tc.want {
				t.Errorf("SUM%v, fold %d of %d: %s, want %s", tc.vals, i, len(runs), got, tc.want)
			}
		}
	}
}

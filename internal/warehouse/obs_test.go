package warehouse

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsQueries exercises every serve-path phase tracing instruments: lazy
// extraction with pruning, a join spine, grouped aggregation and a sort.
var obsQueries = []string{
	q2,
	`SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.network = 'NL' AND D.sample_value > 500
	 GROUP BY F.station`,
	`SELECT F.station, F.channel, AVG(D.sample_value)
	 FROM mseed.dataview
	 WHERE F.station = 'ISK'
	 GROUP BY F.station, F.channel
	 ORDER BY F.channel`,
}

// TestTraceBitIdentity proves tracing never changes answers: a traced
// warehouse and a noTrace warehouse over the same repository return
// byte-identical batches across worker counts and memory budgets.
func TestTraceBitIdentity(t *testing.T) {
	dir := genRepo(t, 1500)
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 2 << 20} {
			traced, err := Open(dir, Options{Mode: Lazy, Workers: workers, MemoryBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := openOracle(dir, Options{Mode: Lazy, Workers: workers, MemoryBudget: budget}, noTrace)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range obsQueries {
				rt, err := traced.Query(q)
				if err != nil {
					t.Fatalf("workers=%d budget=%d traced: %v", workers, budget, err)
				}
				ro, err := oracle.Query(q)
				if err != nil {
					t.Fatalf("workers=%d budget=%d oracle: %v", workers, budget, err)
				}
				if rt.Batch.String() != ro.Batch.String() {
					t.Errorf("workers=%d budget=%d: traced and noTrace answers differ for %q",
						workers, budget, q)
				}
				if rt.Trace.Spans == nil {
					t.Errorf("workers=%d budget=%d: traced warehouse returned nil span tree", workers, budget)
				}
				if ro.Trace.Spans != nil {
					t.Errorf("workers=%d budget=%d: noTrace warehouse returned a span tree", workers, budget)
				}
			}
		}
	}
}

// TestSpanCoverage checks the span tree accounts for the query's wall
// time: the root covers the serve path end to end and its direct children
// (admit, normalize, snapshot, cache-probe, parse, plan, execute, emit)
// sum to at least 90% of it on a cold meaty query.
func TestSpanCoverage(t *testing.T) {
	dir := genRepo(t, 4000)
	w := openWH(t, dir, Lazy)
	res, err := w.Query(obsQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace.Spans
	if root == nil || root.Name != "query" {
		t.Fatalf("want root span %q, got %+v", "query", root)
	}
	if root.Nanos <= 0 {
		t.Fatalf("root span has no duration: %+v", root)
	}
	var sum time.Duration
	for _, c := range root.Children {
		sum += c.Duration()
	}
	frac := float64(sum) / float64(root.Nanos)
	t.Logf("top-level spans cover %.1f%% of root wall time", 100*frac)
	if frac < 0.90 {
		t.Errorf("top-level spans cover %.1f%% of root wall time, want >= 90%%\n%s",
			100*frac, obs.Render(root))
	}
	names := make(map[string]bool, len(root.Children))
	for _, c := range root.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"admit", "normalize", "snapshot", "cache-probe", "parse", "plan", "execute", "emit"} {
		if !names[want] {
			t.Errorf("root span is missing child %q\n%s", want, obs.Render(root))
		}
	}

	// A repeated query is served from the result cache: its tree is the
	// short probe path and the query is classed cached, not cold.
	cold := w.Metrics().Query[obs.ClassCold].Snapshot().Count
	res2, err := w.Query(obsQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace.Spans == nil {
		t.Fatal("cache-hit query returned nil span tree")
	}
	if got := w.Metrics().Query[obs.ClassCold].Snapshot().Count; got != cold {
		t.Errorf("cache hit observed as cold: %d -> %d", cold, got)
	}
	if got := w.Metrics().Query[obs.ClassCached].Snapshot().Count; got == 0 {
		t.Error("cache hit not observed in the cached-class histogram")
	}
}

// TestSinkSpanRows: a pipeline sink's span counts the rows handed to it —
// the outer pipeline's "stage aggregate" the rows COUNT(*) counted, its
// "stage collect" the rows of the answer.
func TestSinkSpanRows(t *testing.T) {
	w := openWH(t, genRepo(t, 4000), Lazy)
	find := func(ns []*obs.SpanNode, name string) *obs.SpanNode {
		for _, n := range ns {
			if n.Name == name {
				return n
			}
		}
		return nil
	}
	const where = " FROM mseed.dataview WHERE F.station = 'ISK' AND D.sample_value > 0"
	agg, err := w.Query("SELECT COUNT(*)" + where)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query("SELECT D.sample_value" + where)
	if err != nil {
		t.Fatal(err)
	}
	n := agg.Batch.Row(0)[0].I
	if n == 0 || int64(rows.Batch.NumRows()) != n {
		t.Fatalf("COUNT(*) = %d, %d rows", n, rows.Batch.NumRows())
	}
	for _, c := range []struct {
		res  *Result
		span string
	}{{agg, "stage aggregate"}, {rows, "stage collect"}} {
		execute := find(c.res.Trace.Spans.Children, "execute")
		if sp := find(execute.Children, c.span); sp == nil || sp.Rows != n || sp.Nanos <= 0 {
			t.Errorf("%s span %+v, want %d rows and a duration\n%s", c.span, sp, n, obs.Render(c.res.Trace.Spans))
		}
	}
}

// TestSlowQueryLog checks SlowQueryThreshold: with a 1ns threshold every
// query is slow, so the operation log gains a warn-severity "slow" entry
// carrying the rendered span tree, and the slow-query counter moves.
func TestSlowQueryLog(t *testing.T) {
	dir := genRepo(t, 1500)
	w, err := Open(dir, Options{Mode: Lazy, SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(q2); err != nil {
		t.Fatal(err)
	}
	var slow *LogEntry
	for _, e := range w.Log() {
		if e.Op == "slow" {
			slow = &e
			break
		}
	}
	if slow == nil {
		t.Fatal("no slow-query entry in the operation log")
	}
	if slow.Level != SeverityWarn {
		t.Errorf("slow entry severity = %v, want warn", slow.Level)
	}
	if !strings.Contains(slow.Detail, "query") || !strings.Contains(slow.Detail, "execute") {
		t.Errorf("slow entry should carry the rendered span tree, got:\n%s", slow.Detail)
	}
	if got := w.Metrics().Slow.Load(); got == 0 {
		t.Error("slow-query counter did not move")
	}

	// Under noTrace the entry still appears, without a tree to render.
	wnt, err := openOracle(dir, Options{Mode: Lazy, SlowQueryThreshold: time.Nanosecond}, noTrace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wnt.Query(q2); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range wnt.Log() {
		if e.Op == "slow" {
			found = true
		}
	}
	if !found {
		t.Error("noTrace warehouse logged no slow-query entry")
	}
}

// TestLogSeqAndSeverity checks the structured log: Seq is strictly
// increasing across entries, severities classify correctly, and an
// error-severity filter (the \log error semantics) isolates failures.
func TestLogSeqAndSeverity(t *testing.T) {
	dir := genRepo(t, 1500)
	w := openWH(t, dir, Lazy)
	if _, err := w.Query(q2); err != nil {
		t.Fatal(err)
	}
	errs := w.Metrics().Errors.Load()
	if _, err := w.Query(`SELECT nonsense FROM mseed.files`); err == nil {
		t.Fatal("want error for unknown column")
	}
	if got := w.Metrics().Errors.Load(); got != errs+1 {
		t.Errorf("error counter = %d, want %d", got, errs+1)
	}
	// A prepared statement executed with the wrong number of parameters
	// fails before it is admitted; it is a failed query all the same.
	prep, err := w.Prepare(`SELECT COUNT(*) FROM mseed.files WHERE station = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Execute(); err == nil {
		t.Fatal("want error for a missing parameter")
	}
	if got := w.Metrics().Errors.Load(); got != errs+2 {
		t.Errorf("error counter = %d after a parameter-count mismatch, want %d", got, errs+2)
	}
	// A statement that fails to prepare is logged at error severity, so it
	// is counted too.
	if _, err := w.Prepare(`SELEC nonsense`); err == nil {
		t.Fatal("want error for an unparsable prepare")
	}
	if got := w.Metrics().Errors.Load(); got != errs+3 {
		t.Errorf("error counter = %d after a failed prepare, want %d", got, errs+3)
	}

	log := w.Log()
	if len(log) == 0 {
		t.Fatal("empty operation log")
	}
	last := int64(-1)
	for _, e := range log {
		if e.Seq <= last {
			t.Fatalf("log Seq not strictly increasing: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	var errEntries []LogEntry
	for _, e := range log {
		if e.Level >= SeverityError {
			errEntries = append(errEntries, e)
		}
	}
	if len(errEntries) == 0 {
		t.Fatal("no error-severity entries after a failed query")
	}
	if got := w.Metrics().Errors.Load() - errs; int64(len(errEntries)) != got {
		t.Fatalf("%d error-severity entries in the log, the error counter moved by %d", len(errEntries), got)
	}
	for _, e := range errEntries {
		if e.Op != "error" {
			t.Errorf("error-severity entry with op %q", e.Op)
		}
	}
	for _, e := range log {
		if e.Op == "query" && e.Level != SeverityInfo {
			t.Errorf("query entry severity = %v, want info", e.Level)
		}
	}
}

// TestFailedRefreshIsAccounted: a Refresh that fails — the repository's
// directory vanished, or a file's header scan fails — is one counted,
// error-severity log entry and publishes nothing: the store snapshot, the
// one record of which files the warehouse knows, is unchanged, and the
// repeat of a cached answer is a result-cache hit, bit-identical to the
// answer before.
func TestFailedRefreshIsAccounted(t *testing.T) {
	cases := []struct {
		name        string
		break_, fix func(t *testing.T, dir string)
	}{
		{"vanished repository", func(t *testing.T, dir string) {
			if err := os.Rename(dir, dir+".gone"); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, dir string) {
			if err := os.Rename(dir+".gone", dir); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt file", func(t *testing.T, dir string) {
			junk := []byte(strings.Repeat("not a miniSEED record ", 24))
			if err := os.WriteFile(filepath.Join(dir, "zz_corrupt.mseed"), junk, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(*testing.T, string) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := genRepo(t, 1500)
			w := openWH(t, dir, Lazy)
			want, err := w.Query(q2)
			if err != nil {
				t.Fatal(err)
			}
			published := w.Store().Snapshot()
			tc.break_(t, dir)
			w.ClearLog()
			errs := w.Metrics().Errors.Load()
			if _, err := w.Refresh(); err == nil {
				t.Fatal("refresh succeeded")
			}
			tc.fix(t, dir)
			if got := w.Metrics().Errors.Load(); got != errs+1 {
				t.Errorf("error counter moved by %d, want 1", got-errs)
			}
			var entries int
			for _, e := range w.Log() {
				if e.Level >= SeverityError {
					entries++
					if e.Op != "error" || !strings.Contains(e.Detail, "refresh failed") {
						t.Errorf("unexpected error entry %q: %s", e.Op, e.Detail)
					}
				}
			}
			if entries != 1 {
				t.Errorf("%d error-severity entries after a failed refresh, want 1", entries)
			}
			if got := w.Store().Snapshot(); got != published {
				t.Errorf("a failed refresh published snapshot %d over %d", got.Version(), published.Version())
			}
			hits := w.Stats().QueryCache.ResultHits
			got, err := w.Query(q2)
			if err != nil {
				t.Fatal(err)
			}
			if qc := w.Stats().QueryCache; qc.ResultHits != hits+1 || qc.ResultEntries != 1 {
				t.Errorf("repeat after a failed refresh: %+d result hits, %d entries; want +1 and 1", qc.ResultHits-hits, qc.ResultEntries)
			}
			if renderExact(got.Batch) != renderExact(want.Batch) {
				t.Errorf("answer changed across a failed refresh\nwant:\n%s\ngot:\n%s", renderExact(want.Batch), renderExact(got.Batch))
			}
		})
	}
}

// TestMetricsHistogramAccounting checks the per-class histograms sum to
// the number of successfully served queries, and that bucket counts are
// internally consistent with each class's Count.
func TestMetricsHistogramAccounting(t *testing.T) {
	dir := genRepo(t, 1500)
	w := openWH(t, dir, Lazy)
	served := 0
	for i := 0; i < 3; i++ {
		for _, q := range obsQueries {
			if _, err := w.Query(q); err != nil {
				t.Fatal(err)
			}
			served++
		}
	}
	if _, err := w.Query(`SELECT broken FROM mseed.files`); err == nil {
		t.Fatal("want error")
	}

	m := w.Metrics()
	var total int64
	for c := obs.QueryClass(0); c < obs.NumClasses; c++ {
		s := m.Query[c].Snapshot()
		var buckets int64
		for _, n := range s.Counts {
			buckets += n
		}
		if buckets != s.Count {
			t.Errorf("class %v: bucket sum %d != count %d", c, buckets, s.Count)
		}
		total += s.Count
	}
	if total != int64(served) {
		t.Errorf("histograms observed %d queries, served %d successfully", total, served)
	}
	if m.Errors.Load() == 0 {
		t.Error("error counter did not move")
	}
}

// TestMetricsScrapeAllocs pins the zero-allocation scrape: once the buffer
// has grown to its steady-state size, rendering the whole metric surface
// into it allocates nothing.
func TestMetricsScrapeAllocs(t *testing.T) {
	w := openWH(t, genRepo(t, 1500), Lazy)
	if _, err := w.Query(q2); err != nil { // populate counters
		t.Fatal(err)
	}
	buf := w.AppendMetrics(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = w.AppendMetrics(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendMetrics allocates %v times per scrape, want 0", allocs)
	}
	if got, want := w.Metrics().Admit.Snapshot().Count, w.Stats().Queries; got != want {
		t.Errorf("admission-wait histogram observed %d queries, %d were admitted", got, want)
	}
}

package warehouse

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
)

const (
	q1 = `SELECT AVG(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'ISK'
AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000'`

	q2 = `SELECT F.station,
MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.network = 'NL'
AND F.channel = 'BHZ'
GROUP BY F.station`
)

// genRepo writes a small deterministic repository. SamplesPerDay is sized
// so the full day covers 2010-01-12 at 40 Hz up to ~22:20, which the Q1
// window (22:15:00-22:15:02) falls inside: 40 Hz * 80500 s &gt; 22h20m.
func genRepo(t testing.TB, samplesPerDay int) string {
	t.Helper()
	dir := t.TempDir()
	_, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		SamplesPerDay: samplesPerDay,
		EventsPerDay:  1,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("generate repository: %v", err)
	}
	return dir
}

// genFullDayRepo writes a repository at 1 Hz whose series cover the whole
// of 2010-01-12 including Q1's 22:15 window, keeping data volumes small.
func genFullDayRepo(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	_, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		SampleRate:    1,
		SamplesPerDay: 24 * 3600,
		EventsPerDay:  1,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("generate repository: %v", err)
	}
	return dir
}

func openWH(t testing.TB, dir string, mode Mode) *Warehouse {
	t.Helper()
	w, err := Open(dir, Options{Mode: mode})
	if err != nil {
		t.Fatalf("open %v warehouse: %v", mode, err)
	}
	return w
}

func TestOpenModesInitialLoad(t *testing.T) {
	dir := genRepo(t, 4000)

	lazy := openWH(t, dir, Lazy)
	eager := openWH(t, dir, Eager)

	li, ei := lazy.InitStats(), eager.InitStats()
	if li.Files != 15 || ei.Files != 15 { // 5 stations x 3 channels x 1 day
		t.Errorf("files: lazy %d, eager %d, want 15", li.Files, ei.Files)
	}
	if li.Records != ei.Records || li.Records == 0 {
		t.Errorf("records: lazy %d, eager %d", li.Records, ei.Records)
	}
	// Lazy reads only headers: far fewer bytes than the repository.
	if li.BytesRead >= li.RepoBytes/2 {
		t.Errorf("lazy initial load read %d of %d repo bytes", li.BytesRead, li.RepoBytes)
	}
	if ei.BytesRead != ei.RepoBytes {
		t.Errorf("eager initial load read %d bytes, repo is %d", ei.BytesRead, ei.RepoBytes)
	}
	// Lazy loads no data rows; eager loads one per sample.
	if got := lazy.Stats().DataRows; got != 0 {
		t.Errorf("lazy data rows = %d", got)
	}
	if got := eager.Stats().DataRows; int64(got) != ei.Samples {
		t.Errorf("eager data rows = %d, want %d", got, ei.Samples)
	}
	// Eager store dwarfs the lazy store.
	if li.StoreBytes*4 > ei.StoreBytes {
		t.Errorf("store bytes: lazy %d not much smaller than eager %d", li.StoreBytes, ei.StoreBytes)
	}
}

func TestFigure1QueriesAgreeAcrossModes(t *testing.T) {
	dir := genRepo(t, 3000)

	lazy := openWH(t, dir, Lazy)
	eager := openWH(t, dir, Eager)
	ext := openWH(t, dir, External)

	for _, q := range []string{q2, // per-station min/max
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
		`SELECT F.channel, AVG(D.sample_value), COUNT(*) FROM mseed.dataview WHERE F.network = 'KO' GROUP BY F.channel ORDER BY F.channel`,
	} {
		rl, err := lazy.Query(q)
		if err != nil {
			t.Fatalf("lazy: %v\nquery: %s", err, q)
		}
		re, err := eager.Query(q)
		if err != nil {
			t.Fatalf("eager: %v\nquery: %s", err, q)
		}
		rx, err := ext.Query(q)
		if err != nil {
			t.Fatalf("external: %v\nquery: %s", err, q)
		}
		assertSameResult(t, q, re.Batch, rl.Batch)
		assertSameResult(t, q, re.Batch, rx.Batch)
	}
}

// assertSameResult compares batches row-by-row with float tolerance,
// ignoring row order (results are compared after sorting by rendering).
func assertSameResult(t *testing.T, q string, want, got *column.Batch) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("shape mismatch for %s:\nwant %dx%d\n%v\ngot %dx%d\n%v",
			q, want.NumRows(), want.NumCols(), want, got.NumRows(), got.NumCols(), got)
	}
	render := func(b *column.Batch) []string {
		rows := make([]string, b.NumRows())
		for i := 0; i < b.NumRows(); i++ {
			var sb strings.Builder
			for _, v := range b.Row(i) {
				if v.Type == column.Float64 {
					sb.WriteString(strings.TrimRight(strings.TrimRight(
						fmtFloat(v.F), "0"), "."))
				} else {
					sb.WriteString(v.String())
				}
				sb.WriteByte('|')
			}
			rows[i] = sb.String()
		}
		sortStrings(rows)
		return rows
	}
	w, g := render(want), render(got)
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d mismatch for %s:\nwant %s\ngot  %s", i, q, w[i], g[i])
		}
	}
}

// fmtFloat rounds to 6 decimals to absorb summation-order differences
// between execution strategies.
func fmtFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 6, 64)
	if s == "-0.000000" {
		return "0.000000"
	}
	return s
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestFigure1Q1WindowAggregate(t *testing.T) {
	// A full-day 1 Hz repository covers the 22:15 window of Q1.
	dir := genFullDayRepo(t)
	lazy := openWH(t, dir, Lazy)
	eager := openWH(t, dir, Eager)

	rl, err := lazy.Query(q1)
	if err != nil {
		t.Fatalf("lazy q1: %v", err)
	}
	re, err := eager.Query(q1)
	if err != nil {
		t.Fatalf("eager q1: %v", err)
	}
	if rl.Batch.NumRows() != 1 || re.Batch.NumRows() != 1 {
		t.Fatalf("expected 1 row, got lazy=%d eager=%d", rl.Batch.NumRows(), re.Batch.NumRows())
	}
	lv, ev := rl.Batch.Row(0)[0], re.Batch.Row(0)[0]
	if lv.Null || ev.Null {
		t.Fatalf("q1 returned NULL (window not covered): lazy=%v eager=%v", lv, ev)
	}
	if math.Abs(lv.F-ev.F) > 1e-6*math.Max(1, math.Abs(ev.F)) {
		t.Errorf("q1: lazy %g != eager %g", lv.F, ev.F)
	}

	// The lazy query must touch only the single qualifying file.
	if n := len(rl.Trace.TouchedFiles); n != 1 {
		t.Errorf("lazy q1 touched %d files, want 1: %v", n, rl.Trace.TouchedFiles)
	}
	if !strings.Contains(rl.Trace.TouchedFiles[0], "ISK") || !strings.Contains(rl.Trace.TouchedFiles[0], "BHE") {
		t.Errorf("touched wrong file: %v", rl.Trace.TouchedFiles)
	}
}

func TestLazyTraceShowsRewrite(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)
	res, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if !strings.Contains(tr.Naive(), "Scan mseed.data") {
		t.Errorf("naive plan should scan mseed.data:\n%s", tr.Naive())
	}
	if !strings.Contains(tr.Optimized(), "LazyExtract") {
		t.Errorf("optimized plan should contain LazyExtract:\n%s", tr.Optimized())
	}
	// Metadata predicates must sit below the extraction in the plan.
	if !strings.Contains(tr.Optimized(), "F.network = 'NL'") {
		t.Errorf("optimized plan lost the metadata predicate:\n%s", tr.Optimized())
	}
	if len(tr.RuntimeOps()) == 0 {
		t.Error("no run-time injected operators recorded")
	}
	for _, op := range tr.RuntimeOps() {
		if !strings.HasPrefix(op, "ExtractRecord") && !strings.HasPrefix(op, "CacheRead") && !strings.HasPrefix(op, "ExtractFile") {
			t.Errorf("unexpected injected op %q", op)
		}
	}
	// 4 NL stations x BHZ = 4 files.
	if len(tr.TouchedFiles) != 4 {
		t.Errorf("touched %d files, want 4: %v", len(tr.TouchedFiles), tr.TouchedFiles)
	}
}

func TestCacheWarmup(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)

	r1, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, op := range r1.Trace.RuntimeOps() {
		if strings.HasPrefix(op, "ExtractRecord") {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("first query extracted nothing")
	}
	r2, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range r2.Trace.RuntimeOps() {
		if !strings.HasPrefix(op, "CacheRead") {
			t.Fatalf("second run should be all cache reads, saw %q", op)
		}
	}
	if len(r2.Trace.TouchedFiles) != 0 {
		t.Errorf("second run touched files: %v", r2.Trace.TouchedFiles)
	}
	assertSameResult(t, q2, r1.Batch, r2.Batch)
}

func TestLazyRefreshAfterUpdate(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)
	if _, err := w.Query(q2); err != nil {
		t.Fatal(err)
	}
	st0 := w.Engine().Cache().Stats()
	if st0.Invalidations != 0 {
		t.Fatalf("unexpected invalidations before update: %+v", st0)
	}

	// Touch one qualifying file into the future.
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var touched string
	for _, f := range rp.Files {
		if strings.Contains(f.URI, "NL/HGN/BHZ") {
			touched = f.AbsPath
			if err := repo.Touch(f.AbsPath, time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if touched == "" {
		t.Fatal("no NL/HGN/BHZ file found")
	}

	res, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	st1 := w.Engine().Cache().Stats()
	if st1.Invalidations == 0 {
		t.Error("update did not invalidate any cache entries")
	}
	if len(res.Trace.TouchedFiles) != 1 || !strings.Contains(res.Trace.TouchedFiles[0], "HGN") {
		t.Errorf("refresh should re-extract only the updated file, touched %v", res.Trace.TouchedFiles)
	}
}

// TestRewriteWithOlderMtimeIsNotServedStale: a file rewritten with an
// mtime older than the one its cached records were extracted at (restored
// from a backup, copied with its timestamps kept), or with its mtime kept
// and its size changed, has changed all the same. The recycler must
// re-extract it rather than serve the old samples beside the refreshed
// metadata, and its zone entries must not prune the new records.
func TestRewriteWithOlderMtimeIsNotServedStale(t *testing.T) {
	const perFile = `SELECT F.uri, COUNT(*), SUM(D.sample_value), MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview GROUP BY F.uri`
	cases := []struct {
		name, uri string
		samples   int           // the replacement's samples per day
		shift     time.Duration // its mtime against the original's
	}{
		{"older mtime", "KO/ISK/BHE/KO.ISK..BHE.2010.012.mseed", 3000, -time.Hour},
		{"same mtime, other size", "NL/DBN/BHZ/NL.DBN..BHZ.2010.012.mseed", 4000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// pruned asks for the file's samples above a threshold, so its
			// zone entries, collected by the first run, prune records.
			pruned := fmt.Sprintf(`SELECT COUNT(*), MIN(D.sample_value) FROM mseed.dataview
WHERE F.uri = '%s' AND D.sample_value > 243`, tc.uri)
			dir := genRepo(t, 3000)
			w := openWH(t, dir, Lazy)
			for _, q := range []string{perFile, pruned} {
				if _, err := w.QueryUncached(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}

			other := t.TempDir()
			if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: other, SamplesPerDay: tc.samples, EventsPerDay: 1, Seed: 43}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, filepath.FromSlash(tc.uri))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(other, filepath.FromSlash(tc.uri)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.shift == 0 && int64(len(data)) == info.Size() {
				t.Fatalf("setup: the replacement has the original's size, %d bytes", info.Size())
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			at := info.ModTime().Add(tc.shift)
			if err := os.Chtimes(path, at, at); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Refresh(); err != nil {
				t.Fatal(err)
			}

			// pruned first: a run of perFile would re-collect every zone.
			fresh := openWH(t, dir, Lazy)
			for _, q := range []string{pruned, perFile} {
				got, err := w.QueryUncached(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.QueryUncached(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, q, want.Batch, got.Batch)
			}
			if w.Engine().Cache().Stats().Invalidations == 0 {
				t.Error("the rewritten file invalidated no recycler entry")
			}
		})
	}
}

func TestExternalModeTouchesEverything(t *testing.T) {
	dir := genRepo(t, 2000)
	ext := openWH(t, dir, External)
	res, err := ext.Query(q2) // selective predicate
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.TouchedFiles) != 15 {
		t.Errorf("external mode touched %d files, want all 15", len(res.Trace.TouchedFiles))
	}

	lazy := openWH(t, dir, Lazy)
	rl, err := lazy.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Trace.TouchedFiles) != 4 {
		t.Errorf("lazy mode touched %d files, want 4", len(rl.Trace.TouchedFiles))
	}
}

func TestMetadataBrowsing(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	res, err := w.Query(`SELECT station, COUNT(*) FROM mseed.files GROUP BY station ORDER BY station`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.NumRows() != 5 {
		t.Fatalf("stations: %d rows\n%v", res.Batch.NumRows(), res.Batch)
	}
	cnt, _ := res.Batch.Col("COUNT(*)")
	for i := 0; i < 5; i++ {
		if cnt.Int64s()[i] != 3 { // 3 channels per station
			t.Errorf("station %d has %d files, want 3", i, cnt.Int64s()[i])
		}
	}
	// Record metadata with aliased base table.
	res, err = w.Query(`SELECT COUNT(*) FROM mseed.records R WHERE R.num_samples > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Row(0)[0].I == 0 {
		t.Error("no records found")
	}
}

// TestConstantSortAndGroupKeysAreRejected: "ORDER BY 3" used to plan as a
// sort on the constant 3 and silently answer in table order. A bare constant
// key is now a parse error at the key's offset in the text as the client
// wrote it — the template the text normalizes to fails to parse, so resolve
// falls back to the raw text — and an expression that merely contains a
// literal still sorts.
func TestConstantSortAndGroupKeysAreRejected(t *testing.T) {
	w := openWH(t, genRepo(t, 1000), Lazy)
	for _, bad := range []struct{ q, key string }{
		{"SELECT station, channel, num_records\n  FROM mseed.files ORDER BY 3 DESC LIMIT 3", "3 DESC"},
		{"SELECT station FROM mseed.files   ORDER BY station, -1", "-1"},
		{"SELECT COUNT(*) FROM mseed.files GROUP BY 'x'", "'x'"},
		{"SELECT station FROM mseed.files ORDER BY (NULL)", "(NULL)"},
	} {
		_, err := w.Query(bad.q)
		if want := fmt.Sprintf("offset %d", strings.LastIndex(bad.q, bad.key)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one at %s", bad.q, err, want)
		}
	}
	if _, err := w.Prepare("SELECT station FROM mseed.files ORDER BY ?"); err == nil {
		t.Error("a '?' marker was accepted as a sort key")
	}
	res, err := w.Query("SELECT station, num_records FROM mseed.files ORDER BY num_records * -1, station DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Batch.Row(0)[0].S; got != "WIT" {
		t.Errorf("sort on an expression holding a literal: first station %q, want WIT", got)
	}
}

func TestQueryDataTableVirtualInLazyMode(t *testing.T) {
	dir := genRepo(t, 1000)
	w := openWH(t, dir, Lazy)
	if _, err := w.Query(`SELECT COUNT(*) FROM mseed.data`); err == nil {
		t.Error("expected error querying virtual mseed.data in lazy mode")
	}
	e := openWH(t, dir, Eager)
	res, err := e.Query(`SELECT COUNT(*) FROM mseed.data`)
	if err != nil {
		t.Fatalf("eager mode should allow direct data scans: %v", err)
	}
	if res.Batch.Row(0)[0].I == 0 {
		t.Error("eager data table empty")
	}
}

func TestExplainAndLog(t *testing.T) {
	dir := genRepo(t, 1000)
	w := openWH(t, dir, Lazy)
	tr, err := w.Explain(q1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Naive() == "" || tr.Optimized() == "" || tr.Naive() == tr.Optimized() {
		t.Errorf("explain plans missing or identical:\n%s\n%s", tr.Naive(), tr.Optimized())
	}
	if _, err := w.Query(q2); err != nil {
		t.Fatal(err)
	}
	log := w.Log()
	if len(log) == 0 {
		t.Fatal("empty operation log")
	}
	var sawQuery, sawExtract, sawAnswer bool
	for _, e := range log {
		switch e.Op {
		case "query":
			sawQuery = true
		case plan.ExtractRecord, plan.CacheRead, plan.ExtractFile, "read", "open":
			sawExtract = true
		case "answer":
			sawAnswer = true
		}
	}
	// The query's extraction runs are in its trace, not the log.
	if !sawQuery || sawExtract || !sawAnswer {
		t.Errorf("log entries: query=%v per-record or per-run=%v answer=%v, want true, false, true", sawQuery, sawExtract, sawAnswer)
	}
	// Q2 reads F.station and D.sample_value: the station travels as constant
	// runs and the GROUP BY over it folds once per run, and the log says so.
	if got := lastLog(w, "extract"); !strings.HasSuffix(got, "universal-table rows × 2 of 24 columns (1 as runs)") {
		t.Errorf("extract event %q does not report 2 columns, 1 as runs", got)
	}
	var rows, runs, groups int
	if _, err := fmt.Sscanf(lastLog(w, "aggregate"), "%d rows in %d runs -> %d groups", &rows, &runs, &groups); err != nil || runs == 0 || runs >= rows {
		t.Errorf("aggregate event %q does not report a per-run fold", lastLog(w, "aggregate"))
	}
	w.ClearLog()
	if len(w.Log()) != 0 {
		t.Error("ClearLog did not clear")
	}
}

// TestRefreshPicksUpNewFiles: a Refresh that adds a file changes answers
// the result tier already holds, although no file any of them depends on
// changed. COUNT(*) over mseed.files extracts nothing, so its answer
// carries no file stamp; the GR aggregate's stamps list the GR files there
// were (none), all unchanged. That is why answers are keyed on the snapshot
// version and purged by Refresh, not invalidated file by file.
func TestRefreshPicksUpNewFiles(t *testing.T) {
	const (
		filesQ = `SELECT COUNT(*) FROM mseed.files`
		grQ    = `SELECT COUNT(*) FROM mseed.dataview WHERE F.network = 'GR'`
	)
	dir := genRepo(t, 1000)
	w := openWH(t, dir, Lazy)
	ask := func(q string) int64 {
		t.Helper()
		res, err := w.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Batch.Row(0)[0].I
	}
	hits := w.Stats().QueryCache.ResultHits
	files, gr := ask(filesQ), ask(grQ)
	if ask(filesQ) != files || ask(grQ) != gr {
		t.Fatal("a repeated answer changed")
	}
	if got := w.Stats().QueryCache.ResultHits - hits; got != 2 {
		t.Fatalf("the repeats were %d result hits, want 2: both answers resident", got)
	}

	// Add a new station's files.
	_, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		Stations:      []seisgen.Station{{Network: "GR", Code: "BFO"}},
		Channels:      []string{"BHZ"},
		SamplesPerDay: 500,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().FilesRows; int64(got) != files+1 {
		t.Errorf("after refresh: %d files, want %d", got, files+1)
	}
	if got := ask(filesQ); got != files+1 {
		t.Errorf("%s after refresh = %d, want %d", filesQ, got, files+1)
	}
	if got := ask(grQ); got != 500 {
		t.Errorf("new station samples = %d, want 500 (was %d)", got, gr)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("expected error opening empty repository")
	}
	if _, err := Open("/nonexistent/path", Options{}); err == nil {
		t.Error("expected error for missing directory")
	}
}

func TestCacheBudgetEviction(t *testing.T) {
	dir := genRepo(t, 4000)
	// A run's records view one 32 KB value buffer (4000 samples), charged
	// whole: the budget holds two of the query's runs, not all of them.
	const budget = 80 << 10
	w, err := Open(dir, Options{Mode: Lazy, ETL: etl.Options{CacheBudget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(q2); err != nil {
		t.Fatal(err)
	}
	st := w.Engine().Cache().Stats()
	if st.Evictions == 0 {
		t.Errorf("tiny cache should evict: %+v", st)
	}
	if used := w.Engine().Cache().Used(); used == 0 || used > budget {
		t.Errorf("cache over budget: %d", used)
	}
	// Results stay correct under eviction pressure.
	e := openWH(t, dir, Eager)
	rl, _ := w.Query(q2)
	re, _ := e.Query(q2)
	assertSameResult(t, q2, re.Batch, rl.Batch)
}

// TestSampleTimeOfRatelessRecord serves a record whose rate factor is zero,
// as the log and state-of-health records of real archives carry: there is no
// spacing to derive sample times from, so every sample sits at the record's
// start — what R.end_time (mseed.Header.EndNanos) already says — in every
// mode and engine. Dividing by the zero rate instead made each time an
// int64 conversion of NaN or +Inf, which is platform-defined garbage.
func TestSampleTimeOfRatelessRecord(t *testing.T) {
	dir := genRepo(t, 500)
	start := time.Date(2010, 1, 12, 6, 0, 0, 0, time.UTC)
	samples := []int32{5, 6, 8, 7, 3, -2, 0, 4, 9}
	h := &mseed.Header{
		SeqNo: 1, Quality: 'D', Network: "NL", Station: "SOH", Channel: "LOG",
		Start: mseed.BTimeFromTime(start), RateFactor: 0, RateMultiplier: 1,
		Encoding: mseed.EncodingSteim2, RecordLength: 512,
	}
	rec, consumed, err := mseed.EncodeRecord(h, samples, samples[0])
	if err != nil || consumed != len(samples) {
		t.Fatalf("encode: %d of %d samples, %v", consumed, len(samples), err)
	}
	if err := os.WriteFile(filepath.Join(dir, "NL.SOH..LOG.mseed"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	q := `SELECT COUNT(*), MIN(D.sample_time), MAX(D.sample_time), MIN(R.start_time), MAX(R.end_time)
	      FROM mseed.dataview WHERE F.station = 'SOH'`
	for _, tc := range []struct {
		mode Mode
		o    oracle
	}{{Lazy, 0}, {Lazy, noPipeline}, {Eager, 0}} {
		w, err := openOracle(dir, Options{Mode: tc.mode}, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"cold", "warm"} {
			res, err := w.QueryUncached(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			row := res.Batch.Row(0)
			for c := 1; c < len(row); c++ {
				if row[0].I != int64(len(samples)) || row[c].I != start.UnixNano() {
					t.Fatalf("%v oracle=%v %s: %v, want %d samples all at the record start %d",
						tc.mode, tc.o, state, row, len(samples), start.UnixNano())
				}
			}
		}
	}
}

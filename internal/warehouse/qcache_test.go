package warehouse

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
	"repro/internal/sql"
)

// qcacheQueries mixes metadata scans, lazy extraction, grouping and
// ordering — the shapes the serving layer caches (the explicit join spine
// is Eager-only and covered by TestQueryCacheExplicitJoin).
var qcacheQueries = []string{
	q1,
	q2,
	`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
	`SELECT station, channel FROM mseed.files ORDER BY station, channel LIMIT 7`,
	`SELECT F.channel, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.channel`,
}

// TestQueryCacheOracleMatrix is the bit-identity oracle: cached answers
// must equal noQueryCache execution, for cold runs, warm (cache-hit) runs,
// and across a Refresh boundary that changes the repository, across
// workers x budgets.
func TestQueryCacheOracleMatrix(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 2 << 20} {
			name := fmt.Sprintf("workers=%d/budget=%d", workers, budget)
			t.Run(name, func(t *testing.T) {
				dir := genRepo(t, 2500)
				open := func(o oracle) *Warehouse {
					w, err := openOracle(dir, Options{Mode: Lazy, Workers: workers, MemoryBudget: budget}, o)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				cached, oracle := open(0), open(noQueryCache)
				compare := func(stage string) {
					t.Helper()
					for _, q := range qcacheQueries {
						want, err := oracle.Query(q)
						if err != nil {
							t.Fatalf("%s oracle: %v\nquery: %s", stage, err, q)
						}
						for run := 0; run < 2; run++ { // run 1 should hit the result cache
							got, err := cached.Query(q)
							if err != nil {
								t.Fatalf("%s run %d: %v\nquery: %s", stage, run, err, q)
							}
							if g, w := renderExact(got.Batch), renderExact(want.Batch); g != w {
								t.Errorf("%s run %d diverged from noQueryCache oracle\nquery: %s\nwant:\n%s\ngot:\n%s",
									stage, run, q, w, g)
							}
						}
					}
				}
				compare("cold")
				if cached.Stats().QueryCache.ResultHits == 0 {
					t.Error("warm runs never hit the result cache")
				}

				// Change the repository and Refresh both sides: post-refresh
				// answers must still agree (and reflect the new content).
				if _, err := seisgen.Generate(seisgen.RepoConfig{
					Dir:      dir,
					Stations: []seisgen.Station{{Network: "GR", Code: "BFO"}},
					Channels: []string{"BHZ"}, SamplesPerDay: 400, Seed: 7,
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := cached.Refresh(); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.Refresh(); err != nil {
					t.Fatal(err)
				}
				compare("post-refresh")
			})
		}
	}
}

// TestResultCacheHitSkipsExecution pins the tier-2 contract: a repeated
// identical query is answered from the result cache without re-extracting,
// re-reading the recycler cache, or running any plan operator.
func TestResultCacheHitSkipsExecution(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	const q = `SELECT F.station, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.station`
	warm, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	hit, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.QueryCache.ResultHits != before.QueryCache.ResultHits+1 {
		t.Errorf("result hits %d -> %d, want +1", before.QueryCache.ResultHits, after.QueryCache.ResultHits)
	}
	if after.Extraction.Extractions != before.Extraction.Extractions ||
		after.Extraction.CacheReads != before.Extraction.CacheReads ||
		after.Extraction.BytesRead != before.Extraction.BytesRead {
		t.Errorf("cache hit touched extraction: %+v -> %+v", before.Extraction, after.Extraction)
	}
	if renderExact(hit.Batch) != renderExact(warm.Batch) {
		t.Error("cached answer differs from the computed one")
	}
	if hit.Trace.SQL() == "" || hit.Trace.Optimized() == "" {
		t.Errorf("cached trace lost its plans: %+v", hit.Trace)
	}
	// The warehouse log labels the served answer.
	var logged bool
	for _, e := range w.Log() {
		if e.Op == "answer" && strings.Contains(e.Detail, "result cache") {
			logged = true
		}
	}
	if !logged {
		t.Error("log has no result-cache answer entry")
	}
}

// TestStatementTierSharesShapes: every spelling of one shape resolves to
// the same *Prepared — ad-hoc queries differing in literals, whitespace or
// keyword case, and Prepare of the shape's template — and Prepare reports a
// statement that does not parse at its offset in the text as sent.
func TestStatementTierSharesShapes(t *testing.T) {
	w := openWH(t, genRepo(t, 500), Lazy)
	ps, err := w.Prepare(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Identifiers — function names included — stay case-sensitive, so COUNT
	// keeps its spelling.
	for _, q := range []string{
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`,
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN'`,
		"select COUNT(*)  from mseed.dataview\n where F.station='HGN'",
	} {
		p, params, err := w.resolve(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p != ps || len(params) != 1 {
			t.Errorf("%q resolved to %q with %d parameter(s), want the prepared %q with 1", q, p.SQL(), len(params), ps.SQL())
		}
	}
	if again, err := w.Prepare(ps.SQL()); err != nil || again != ps {
		t.Errorf("preparing the template again: %v, a new statement %t", err, again != ps)
	}
	const bad = "SELECT   COUNT(*)\n\tFROM mseed.files   WHERE station = ?   AND AND"
	_, err = w.Prepare(bad)
	if want := fmt.Sprintf("offset %d", strings.LastIndex(bad, "AND")); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not point at %s of the raw text", err, want)
	}
}

// TestStatementTierKeepsHotTemplates: a template asked twice is protected,
// so a stream of 4,000 one-off templates — each asked once, as a random
// LIMIT makes them — cycles through probation without evicting it, and
// leaves at most a quarter of the tier's budget resident besides.
func TestStatementTierKeepsHotTemplates(t *testing.T) {
	w := openWH(t, genRepo(t, 500), Lazy)
	const hot = `SELECT station, COUNT(*) FROM mseed.files WHERE network = 'NL' GROUP BY station`
	var tmpl string
	for i := 0; i < 2; i++ {
		p, _, err := w.resolve(hot, nil)
		if err != nil {
			t.Fatal(err)
		}
		tmpl = p.SQL()
	}
	for i := 0; i < 4000; i++ {
		if _, _, err := w.resolve(fmt.Sprintf("SELECT station FROM mseed.files LIMIT %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.qc.mu.Lock()
	_, resident := w.qc.stmts.Get(tmpl, false)
	n := w.qc.stmts.Len()
	w.qc.mu.Unlock()
	if !resident {
		t.Error("the template asked twice was evicted by 4,000 one-offs")
	}
	if n > 1+maxStmts/4 {
		t.Errorf("%d statements resident, want at most the hot one and a quarter of %d", n, maxStmts)
	}
}

// TestResultKeysAreExact: bindings that differ in any value — its type,
// null or not, a float's bits, where one string ends and the next begins —
// get distinct result-cache keys, and a one-off statement gets none.
func TestResultKeysAreExact(t *testing.T) {
	p := &Prepared{text: "SELECT ?, ?", cached: true}
	bindings := [][]column.Value{
		nil,
		{column.NewInt64(1)}, {column.NewFloat64(1)}, {column.NewBool(true)}, {column.NewTimestamp(1)},
		{column.NewNull(column.Int64)}, {column.NewNull(column.String)}, {column.NewString("n")},
		{column.NewFloat64(math.NaN())}, {column.NewFloat64(math.Float64frombits(0x7ff8000000000002))},
		{column.NewFloat64(0)}, {column.NewFloat64(math.Copysign(0, -1))},
		{column.NewString("ab"), column.NewString("c")}, {column.NewString("a"), column.NewString("bc")},
		{column.NewString(""), column.NewString("")}, {column.NewString("")},
	}
	seen := make(map[string]int)
	for i, b := range bindings {
		k := p.key(b)
		if j, ok := seen[k]; ok {
			t.Errorf("bindings %v and %v share the key %q", bindings[j], b, k)
		}
		seen[k] = i
	}
	if k := (&Prepared{text: p.text}).key(bindings[1]); k != "" {
		t.Errorf("a one-off statement has the key %q", k)
	}
}

func TestPreparedStatements(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	ps, err := w.Prepare(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = ? AND D.sample_value > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", ps.NumParams())
	}
	want, err := w.QueryUncached(context.Background(), `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND D.sample_value > 500`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.Execute(column.NewString("ISK"), column.NewInt64(500))
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(got.Batch) != renderExact(want.Batch) {
		t.Errorf("prepared answer diverged:\nwant:\n%s\ngot:\n%s", renderExact(want.Batch), renderExact(got.Batch))
	}
	// Equal parameters again: plan and result cache both hit.
	before := w.Stats().QueryCache
	again, err := ps.Execute(column.NewString("ISK"), column.NewInt64(500))
	if err != nil {
		t.Fatal(err)
	}
	after := w.Stats().QueryCache
	if after.ResultHits != before.ResultHits+1 {
		t.Errorf("repeat Execute missed the result cache: %+v -> %+v", before, after)
	}
	if renderExact(again.Batch) != renderExact(want.Batch) {
		t.Error("repeat Execute answer diverged")
	}
	// Different parameters: a correct, distinct answer (never the ISK one).
	other, err := ps.Execute(column.NewString("HGN"), column.NewInt64(500))
	if err != nil {
		t.Fatal(err)
	}
	wantOther, err := w.QueryUncached(context.Background(), `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN' AND D.sample_value > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(other.Batch) != renderExact(wantOther.Batch) {
		t.Error("prepared answer with different params diverged")
	}
	// Wrong arity is an error, not a crash.
	if _, err := ps.Execute(column.NewString("ISK")); err == nil {
		t.Error("expected a parameter-count error")
	}
	// Ad-hoc Query must refuse raw markers.
	if _, err := w.Query(`SELECT COUNT(*) FROM mseed.files WHERE station = ?`); err == nil {
		t.Error("Query accepted an unbound '?'")
	}
}

// TestQueryCacheExplicitJoin: the explicit three-table spine answers bit
// for bit like the noQueryCache oracle when cold, warm from the statement
// cache, and from the result cache.
func TestQueryCacheExplicitJoin(t *testing.T) {
	dir := genRepo(t, 3000)
	w, err := Open(dir, Options{Mode: Eager})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := openOracle(dir, Options{Mode: Eager}, noQueryCache)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := oracle.Query(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	want := renderExact(wantRes.Batch)
	cold, err := w.Query(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(cold.Batch) != want {
		t.Error("cold cached answer diverged from oracle")
	}
	// Warm statement, bypassing the result cache: same answer.
	warm, err := w.QueryUncached(context.Background(), joinQ)
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(warm.Batch) != want {
		t.Error("warm uncached answer diverged from oracle")
	}
	hit, err := w.Query(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(hit.Batch) != want {
		t.Error("result-cache answer diverged from oracle")
	}
}

// TestPlansSurviveRefresh: a plan depends on its statement and parameters
// alone, so after a Refresh that changed a file the query read, the next
// uncached run of the cached statement answers bit for bit like a fresh
// noQueryCache warehouse over the touched repository.
func TestPlansSurviveRefresh(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	const q = `SELECT F.station, COUNT(*), MIN(D.sample_time) FROM mseed.dataview WHERE F.station = 'ISK' GROUP BY F.station`
	res, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.TouchedFiles) == 0 {
		t.Fatal("the query read no file")
	}
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var touched bool
	for _, f := range rp.Files {
		if f.URI == res.Trace.TouchedFiles[0] {
			if err := repo.Touch(f.AbsPath, time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			touched = true
		}
	}
	if !touched {
		t.Fatalf("touched file %q not in the repository", res.Trace.TouchedFiles[0])
	}
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, err := w.QueryUncached(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderExact(got.Batch), renderExact(want.Batch); g != w {
		t.Errorf("post-refresh answer diverged from a fresh warehouse\nwant:\n%s\ngot:\n%s", w, g)
	}
}

// TestResultCacheStampInvalidation: touching a source file must drop the
// cached answers that depend on it — answers depend on live mtimes through
// the recycler cache and zone maps, not only on the snapshot versions.
func TestResultCacheStampInvalidation(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	const q = `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`
	want, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var touched bool
	for _, f := range rp.Files {
		if strings.Contains(f.URI, "ISK") && strings.Contains(f.URI, "BHE") {
			if err := repo.Touch(f.AbsPath, time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			touched = true
			break
		}
	}
	if !touched {
		t.Fatal("no ISK/BHE file found")
	}
	before := w.Stats().QueryCache
	got, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after := w.Stats().QueryCache
	if after.ResultInvalidations != before.ResultInvalidations+1 {
		t.Errorf("invalidations %d -> %d, want +1", before.ResultInvalidations, after.ResultInvalidations)
	}
	if after.ResultHits != before.ResultHits {
		t.Error("stale entry was served as a hit")
	}
	if renderExact(got.Batch) != renderExact(want.Batch) {
		t.Error("re-executed answer diverged (touch changed no bytes)")
	}
}

// TestQueryCacheInvalidationUnderChurn hammers one cached query while the
// repository gains a file and Refresh swaps the snapshot. During churn
// every answer must be either the pre-swap or the post-swap truth; after
// the refresher exits, answers must be strictly post-swap.
func TestQueryCacheInvalidationUnderChurn(t *testing.T) {
	dir := genRepo(t, 1500)
	w := openWH(t, dir, Lazy)
	const q = `SELECT COUNT(*) FROM mseed.files`
	res, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	oldN := res.Batch.Row(0)[0].I

	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:      dir,
		Stations: []seisgen.Station{{Network: "GR", Code: "BFO"}},
		Channels: []string{"BHZ"}, SamplesPerDay: 300, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	newN := oldN + 1

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := w.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Batch.Row(0)[0].I; n != oldN && n != newN {
					errs <- fmt.Errorf("churn answer %d is neither pre-swap %d nor post-swap %d", n, oldN, newN)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := w.Refresh(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The refresher has exited: no query may ever see the pre-swap count
	// again, cached or not.
	for i := 0; i < 5; i++ {
		res, err := w.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Batch.Row(0)[0].I; n != newN {
			t.Fatalf("post-refresh answer %d, want %d (a stale cached result survived the swap)", n, newN)
		}
	}
}

// TestQueryCacheLedgerAccounting: the result cache charges the shared
// ledger and releases on purge, so a Refresh that publishes returns the
// bytes and empties the result tier. (That a purge also empties the
// probation and ghost segments is the cache package's to pin.)
func TestQueryCacheLedgerAccounting(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	for _, q := range qcacheQueries {
		// The second Query promotes the answer.
		for _, run := range []func(context.Context, string) (*Result, error){w.QueryContext, w.QueryContext, w.QueryUncached} {
			if _, err := run(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Overflow the result tier's probation into its ghost ring.
	oneOffsUntil(t, w, 0, func(st QueryCacheStats) bool { return st.ResultUnreused > 0 })
	st := w.Stats()
	if st.QueryCache.ResultEntries == 0 || st.QueryCache.ResultBytes == 0 || st.QueryCache.ResultHits == 0 {
		t.Fatalf("nothing cached or nothing reused: %+v", st.QueryCache)
	}
	if st.Mem.Used < st.QueryCache.ResultBytes {
		t.Errorf("ledger (%d) holds less than the result cache (%d): entries not charged",
			st.Mem.Used, st.QueryCache.ResultBytes)
	}
	touchFirst(t, dir)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.QueryCache.ResultEntries != 0 || st.QueryCache.ResultBytes != 0 {
		t.Errorf("refresh left results: %+v", st.QueryCache)
	}
	if st.Mem.Used != st.CacheBytes {
		t.Errorf("ledger holds %d after purge, recycler accounts for %d", st.Mem.Used, st.CacheBytes)
	}
}

// oneOff is the i-th of a stream of distinct-literal metadata queries, each
// asked once: every one has its own result key.
func oneOff(i int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM mseed.files WHERE file_id > %d", -1-i)
}

// oneOffsUntil asks one-offs from the i-th on until done holds for the
// query cache's counters, and returns the index of the next unasked one.
func oneOffsUntil(t *testing.T, w *Warehouse, i int, done func(QueryCacheStats) bool) int {
	t.Helper()
	for limit := i + 1_000_000; !done(w.Stats().QueryCache); i++ {
		if i == limit {
			t.Fatalf("a million one-offs did not get there: %+v", w.Stats().QueryCache)
		}
		if _, err := w.Query(oneOff(i)); err != nil {
			t.Fatal(err)
		}
	}
	return i
}

// TestQueryCacheOneOffsStayOnProbation: distinct-literal queries, enough to
// drop a thousand answers off probation, leave at most a quarter of the
// result tier's budget resident and one statement, their shared template;
// none of it is evicted from protected, and every dropped answer is counted
// as unreused.
func TestQueryCacheOneOffsStayOnProbation(t *testing.T) {
	w := openWH(t, genRepo(t, 500), Lazy)
	n := oneOffsUntil(t, w, 0, func(st QueryCacheStats) bool { return st.ResultUnreused >= 1000 })
	st := w.Stats().QueryCache
	w.qc.mu.Lock()
	stmts := w.qc.stmts.Len()
	w.qc.mu.Unlock()
	if st.ResultBytes > resultBudget/4 || stmts != 1 {
		t.Errorf("%d one-offs left %d result bytes and %d statements resident, want <= %d and 1",
			n, st.ResultBytes, stmts, resultBudget/4)
	}
	if st.ResultHits != 0 || st.ResultEvictions != 0 || st.ResultUnreused != int64(n-st.ResultEntries) {
		t.Errorf("%d one-offs: %+v, want 0 hits, 0 evictions and every dropped answer unreused", n, st)
	}
}

// TestQueryCacheGhostAndProtected: a key asked again once one-offs have
// pushed it off probation misses once; its hash is still in the ghost ring,
// so the re-admitted answer goes straight to protected and outlives
// one-offs that flush everything probation held. So does an answer
// promoted by a hit.
func TestQueryCacheGhostAndProtected(t *testing.T) {
	w := openWH(t, genRepo(t, 500), Lazy)
	const repeated, promoted = `SELECT COUNT(*) FROM mseed.files WHERE station = 'ISK'`, `SELECT COUNT(*) FROM mseed.files WHERE station = 'HGN'`
	ask := func(q string) QueryCacheStats {
		t.Helper()
		if _, err := w.Query(q); err != nil {
			t.Fatal(err)
		}
		return w.Stats().QueryCache
	}
	ask(promoted)
	if st := ask(promoted); st.ResultHits != 1 {
		t.Fatalf("second identical query missed: %+v", st)
	}
	ask(repeated)
	// repeated is the oldest answer on probation, so the first to drop.
	i := oneOffsUntil(t, w, 0, func(st QueryCacheStats) bool { return st.ResultUnreused > 0 })
	before := w.Stats().QueryCache
	if st := ask(repeated); st.ResultHits != before.ResultHits || st.ResultMisses != before.ResultMisses+1 {
		t.Errorf("repeat after %d one-offs: %+v -> %+v, want one miss", i, before, st)
	}
	before = w.Stats().QueryCache
	oneOffsUntil(t, w, i, func(st QueryCacheStats) bool {
		return st.ResultUnreused >= before.ResultUnreused+int64(before.ResultEntries)
	})
	before = w.Stats().QueryCache
	if st := ask(repeated); st.ResultHits != before.ResultHits+1 {
		t.Errorf("the re-admitted answer did not outlive probation: the ghost ring did not remember it: %+v -> %+v", before, st)
	}
	if st := ask(promoted); st.ResultHits != before.ResultHits+2 {
		t.Errorf("the promoted answer did not outlive probation: %+v -> %+v", before, st)
	}
}

// TestQueryIsPrepareExecute pins the one serve path: for every statement of
// the pipeline oracle matrix, Query(q) and Prepare(template).Execute(params)
// — template and params being q's normalization — are the same statement.
// Whichever runs second is a result-cache hit of the entry the first one
// admitted (one shared key), both carry the same plans, and both equal the
// noQueryCache oracle, whose parse of the raw text is independent of
// Normalize + ParseTemplate + BindParams.
func TestQueryIsPrepareExecute(t *testing.T) {
	dir := genRepo(t, 3000)
	modes := []struct {
		mode    Mode
		queries []string
	}{
		{Lazy, append(append([]string(nil), pipelineMatrixQueries...), narrowMatrixQueries...)},
		{External, narrowMatrixQueries},
		{Eager, []string{eagerMatrixQuery, joinQ}},
	}
	for _, m := range modes {
		w := openWH(t, dir, m.mode)
		oracle, err := openOracle(dir, Options{Mode: m.mode}, noQueryCache)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range m.queries {
			n, err := sql.Normalize(q)
			if err != nil {
				t.Fatalf("normalize: %v\nquery: %s", err, q)
			}
			adhoc := func() (*Result, error) { return w.Query(q) }
			prepared := func() (*Result, error) {
				ps, err := w.Prepare(n.Template)
				if err != nil {
					return nil, err
				}
				return ps.Execute(n.Params...)
			}
			first, second := adhoc, prepared
			if i%2 == 1 { // alternate which spelling computes and which hits
				first, second = prepared, adhoc
			}
			before := w.Stats().QueryCache
			r1, err := first()
			if err != nil {
				t.Fatalf("%v first: %v\nquery: %s", m.mode, err, q)
			}
			mid := w.Stats().QueryCache
			r2, err := second()
			if err != nil {
				t.Fatalf("%v second: %v\nquery: %s", m.mode, err, q)
			}
			after := w.Stats().QueryCache
			if mid.ResultEntries != before.ResultEntries+1 || mid.ResultHits != before.ResultHits {
				t.Errorf("%v: first run did not compute and admit one entry: %+v -> %+v\nquery: %s", m.mode, before, mid, q)
			}
			if after.ResultHits != mid.ResultHits+1 || after.ResultEntries != mid.ResultEntries {
				t.Errorf("%v: second spelling missed the first's result-cache entry: %+v -> %+v\nquery: %s", m.mode, mid, after, q)
			}
			want, err := oracle.Query(q)
			if err != nil {
				t.Fatalf("%v oracle: %v\nquery: %s", m.mode, err, q)
			}
			for _, r := range []*Result{r1, r2} {
				if got, exp := renderExact(r.Batch), renderExact(want.Batch); got != exp {
					t.Errorf("%v: diverged from the noQueryCache oracle\nquery: %s\nwant:\n%s\ngot:\n%s", m.mode, q, exp, got)
				}
				if r.Trace.SQL() != want.Trace.SQL() || r.Trace.Optimized() != want.Trace.Optimized() {
					t.Errorf("%v: trace differs from the oracle's\nquery: %s\nwant: %s\n%s\ngot: %s\n%s",
						m.mode, q, want.Trace.SQL(), want.Trace.Optimized(), r.Trace.SQL(), r.Trace.Optimized())
				}
			}
		}
	}

	// Text that cannot normalize (an explicit '?') is parsed as written, so
	// a syntax error behind the marker is reported at its offset in the raw
	// text, not in some canonical rendering of it.
	w := openWH(t, dir, Lazy)
	const bad = "SELECT   COUNT(*)\n\tFROM mseed.files   WHERE station = ?   AND AND"
	_, err := w.Query(bad)
	if want := fmt.Sprintf("offset %d", strings.LastIndex(bad, "AND")); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not point at %s of the raw text", err, want)
	}
}

// TestTraceTextIsRenderedOnDemand: a Trace keeps the bound statement and
// the plans, and renders their text only when asked. For every statement of
// the oracle matrix the text it renders — after the query executed, from a
// result-cache hit, and from Explain — is the text of rendering the plans
// right after Build, so execution modifies no plan. A narrowed extraction's
// metadata scans say which columns they carry.
func TestTraceTextIsRenderedOnDemand(t *testing.T) {
	dir := genRepo(t, 3000)
	var runQueries, zoneQueries []string
	for q := range runMatrixQueries {
		runQueries = append(runQueries, q)
	}
	for _, shape := range zoneAnswerShapes {
		zoneQueries = append(zoneQueries, shape.q)
	}
	modes := []struct {
		mode    Mode
		queries []string
	}{
		{Lazy, slices.Concat([]string{nanMidStream}, pipelineMatrixQueries, narrowMatrixQueries, runQueries, zoneQueries)},
		{External, slices.Concat([]string{nanMidStream, spillQueries[1]}, narrowMatrixQueries, runQueries)},
		{Eager, []string{eagerMatrixQuery, joinQ}},
	}
	for _, m := range modes {
		w := openWH(t, dir, m.mode)
		for _, q := range m.queries {
			p, params, err := w.resolve(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := sql.BindParams(p.stmt, params)
			if err != nil {
				t.Fatal(err)
			}
			plans, err := plan.Build(bound, w.store.Catalog(), w.mode)
			if err != nil {
				t.Fatal(err)
			}
			want := [3]string{bound.String(), plan.Render(plans.Naive), plan.Render(plans.Root)}
			text := func(tr *Trace) [3]string { return [3]string{tr.SQL(), tr.Naive(), tr.Optimized()} }

			hits := w.Stats().QueryCache.ResultHits
			executed, err := w.Query(q)
			if err != nil {
				t.Fatalf("%v: %v\nquery: %s", m.mode, err, q)
			}
			hit, err := w.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Stats().QueryCache.ResultHits; got != hits+1 {
				t.Fatalf("%v: the second run was not a result-cache hit\nquery: %s", m.mode, q)
			}
			explained, err := w.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			for what, tr := range map[string]*Trace{"executed": &executed.Trace, "result-cache hit": &hit.Trace, "explained": explained} {
				if got := text(tr); got != want {
					t.Errorf("%v, %s: trace text differs from rendering after Build\nquery: %s\nwant:\n%s\n%s\n%s\ngot:\n%s\n%s\n%s",
						m.mode, what, q, want[0], want[1], want[2], got[0], got[1], got[2])
				}
			}
			narrowed := strings.Contains(want[2], "LazyExtract") && strings.Contains(want[2], "(columns: ")
			for _, line := range strings.Split(want[2], "\n") {
				if narrowed && strings.Contains(line, "Scan mseed.") && !strings.Contains(line, " (columns: ") {
					t.Errorf("%v: a narrowed extraction's metadata scan carries every column: %q\nquery: %s", m.mode, line, q)
				}
			}
		}
	}
}

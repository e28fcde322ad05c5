package warehouse

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/repo"
)

// skipMatrixQueries all carry a D.sample_value comparison, so zone maps
// collected by a first execution can prune records on the second. The
// seisgen amplitude tops out in the low tens of thousands: > 1e9 prunes
// every record, the other thresholds prune the noise-only majority while
// keeping records that overlap an event.
var skipMatrixQueries = []string{
	`SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 1000000000`,
	`SELECT D.sample_time, D.sample_value FROM mseed.dataview
	 WHERE F.station = 'ISK' AND F.channel = 'BHE' AND D.sample_value > 500`,
	`SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE D.sample_value < -500 GROUP BY F.station`,
}

// TestSkippingOracleMatrix runs every pruning-eligible query twice per
// warehouse (first run collects zone maps as an extraction by-product,
// second run prunes with them) across workers x morsel sizes x memory
// budgets and requires both runs bit-identical to a noSkipping oracle.
func TestSkippingOracleMatrix(t *testing.T) {
	dir := genRepo(t, 3000)
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noSkipping)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, q := range skipMatrixQueries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("oracle: %v\nquery: %s", err, q)
		}
		want[q] = renderExact(res.Batch)
	}
	if st := ref.Stats(); st.Extraction.RecordsSkipped != 0 || st.Exec.ScanRowsSkipped != 0 {
		t.Fatalf("noSkipping oracle pruned: %+v", st.Extraction)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, morsel := range []int{7, 61} {
			for _, budget := range []int64{0, 2 << 20} {
				name := fmt.Sprintf("workers=%d/morsel=%d/budget=%d", workers, morsel, budget)
				// The second run must re-execute (not hit the result cache)
				// for the zone maps to prune anything.
				w, err := openOracle(dir, Options{Mode: Lazy, Workers: workers, morselRows: morsel, MemoryBudget: budget}, noQueryCache)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, q := range skipMatrixQueries {
					for run := 0; run < 2; run++ {
						res, err := w.Query(q)
						if err != nil {
							t.Fatalf("%s run %d: %v\nquery: %s", name, run, err, q)
						}
						if got := renderExact(res.Batch); got != want[q] {
							t.Errorf("%s run %d: diverged from noSkipping oracle\nquery: %s\nwant:\n%s\ngot:\n%s",
								name, run, q, want[q], got)
						}
					}
				}
				if st := w.Stats(); st.Extraction.RecordsSkipped == 0 {
					t.Errorf("%s: second runs pruned no records: %+v", name, st.Extraction)
				}
			}
		}
	}
}

// joinQ is a hand-written three-table spine over the eager tables: the
// data table probes a hash table built over mseed.records on two keys, then
// the 15-row mseed.files table by index. Joins run in the order written.
const joinQ = `SELECT F.station, COUNT(*), AVG(D.sample_value)
FROM mseed.data D
JOIN mseed.records R ON D.file_id = R.file_id AND D.seqno = R.seqno
JOIN mseed.files F ON D.file_id = F.file_id
WHERE F.station = 'ISK'
GROUP BY F.station`

// joinStarQ is joinQ's spine with no operator redefining the output: the
// sort and the limit read the spine, but the result is still every column
// of it, in the order the joins produce them.
const joinStarQ = `SELECT *
FROM mseed.data D
JOIN mseed.records R ON D.file_id = R.file_id AND D.seqno = R.seqno
JOIN mseed.files F ON D.file_id = F.file_id
WHERE F.station = 'ISK'
ORDER BY D.sample_value, D.sample_time LIMIT 5`

// TestExplicitJoinOracle runs the explicit three-table spine, aggregated
// and whole, across workers x memory budgets and requires every answer
// bit-identical to the serial reference with every statistics shortcut off
// (noPipeline|noSkipping: hash joins only, no index probes).
func TestExplicitJoinOracle(t *testing.T) {
	dir := genRepo(t, 3000)
	ref, err := openOracle(dir, Options{Mode: Eager, Workers: 1}, noPipeline|noSkipping)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{joinQ, joinStarQ}
	want := make(map[string]string)
	for _, q := range queries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("reference: %v\nquery: %s", err, q)
		}
		want[q] = renderExact(res.Batch)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 2 << 20} {
			name := fmt.Sprintf("workers=%d/budget=%d", workers, budget)
			w, err := Open(dir, Options{Mode: Eager, Workers: workers, MemoryBudget: budget})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, q := range queries {
				res, err := w.Query(q)
				if err != nil {
					t.Fatalf("%s: %v\nquery: %s", name, err, q)
				}
				if got := renderExact(res.Batch); got != want[q] {
					t.Errorf("%s: diverged from the reference\nquery: %s\nwant:\n%s\ngot:\n%s", name, q, want[q], got)
				}
			}
			if w.Stats().Exec.Pipelines == 0 {
				t.Errorf("%s: no query ran as a pipeline", name)
			}
		}
	}
}

// commutedJoins is one D/R/F spine written in four FROM/JOIN orders. A join
// drops its right side's key columns, so which file_id and seqno survive
// depends on the order: each ON names survivors, and the shapes read none.
var commutedJoins = []string{
	`FROM mseed.data D
	 JOIN mseed.records R ON D.file_id = R.file_id AND D.seqno = R.seqno
	 JOIN mseed.files F ON D.file_id = F.file_id`,
	`FROM mseed.files F
	 JOIN mseed.records R ON F.file_id = R.file_id
	 JOIN mseed.data D ON F.file_id = D.file_id AND R.seqno = D.seqno`,
	`FROM mseed.records R
	 JOIN mseed.files F ON R.file_id = F.file_id
	 JOIN mseed.data D ON D.file_id = R.file_id AND D.seqno = R.seqno`,
	`FROM mseed.records R
	 JOIN mseed.data D ON D.seqno = R.seqno AND D.file_id = R.file_id
	 JOIN mseed.files F ON F.file_id = R.file_id`,
}

// commutedShapes wrap each spine: a row-wise selection and an integer
// aggregate, both ordered by a total key (a file's samples have distinct
// times). Every order must return the same rows bit for bit; a float SUM
// would not, because its bits depend on the order rows are added in.
var commutedShapes = []string{
	`SELECT F.uri, F.channel, R.start_time, D.sample_time, D.sample_value %s
	 WHERE F.channel = 'BHZ' AND R.seqno < 6
	 ORDER BY F.uri, D.sample_time`,
	`SELECT F.station, F.channel, COUNT(*), MIN(D.sample_time), MAX(D.sample_time), SUM(R.num_samples) %s
	 WHERE D.sample_value > 0
	 GROUP BY F.station, F.channel ORDER BY F.station, F.channel`,
}

// TestJoinCommutation is the metamorphic join-commutation check: the order
// the SQL states is the order the joins run in, and every order must give
// the same answer, across workers x memory budgets.
func TestJoinCommutation(t *testing.T) {
	dir := genRepo(t, 3000)
	for si, shape := range commutedShapes {
		want := ""
		for _, workers := range []int{1, 8} {
			for _, budget := range []int64{0, 2 << 20} {
				w, err := openOracle(dir, Options{Mode: Eager, Workers: workers, MemoryBudget: budget}, noQueryCache)
				if err != nil {
					t.Fatal(err)
				}
				for ji, from := range commutedJoins {
					name := fmt.Sprintf("shape %d, order %d, workers=%d/budget=%d", si, ji, workers, budget)
					res, err := w.Query(fmt.Sprintf(shape, from))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := renderExact(res.Batch)
					if want == "" {
						if res.Batch.NumRows() == 0 {
							t.Fatalf("%s: no rows; the check is vacuous", name)
						}
						want = got
					} else if got != want {
						t.Errorf("%s: diverged from order 0\nwant:\n%s\ngot:\n%s", name, want, got)
					}
				}
				// The orders that build over mseed.data spill under the budget,
				// so the agreement also spans the spilled-build breaker.
				if spills := w.Stats().Exec.JoinSpills; (budget > 0) != (spills > 0) {
					t.Errorf("shape %d, workers=%d/budget=%d: %d joins spilled", si, workers, budget, spills)
				}
			}
		}
	}
}

// TestZoneMapStalenessAfterUpdate is the stale-stats regression: zone maps
// are keyed by file mtime, so touching a file must make its statistics
// miss (no pruning for that file on the next run) and the re-extraction
// must re-collect fresh zones that prune again afterwards.
func TestZoneMapStalenessAfterUpdate(t *testing.T) {
	dir := genRepo(t, 3000)
	const q = `SELECT COUNT(*) FROM mseed.dataview
	 WHERE F.network = 'NL' AND D.sample_value > 1000000000`

	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noSkipping)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := renderExact(wantRes.Batch)

	// NoQueryCache: the test re-runs one identical query and asserts on
	// extraction counters, so every run must actually execute.
	w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(q); err != nil { // collect zones
		t.Fatal(err)
	}
	if _, err := w.Query(q); err != nil { // prune with them
		t.Fatal(err)
	}
	base := w.Stats().Extraction.RecordsSkipped
	if base == 0 {
		t.Fatalf("no records pruned on warm run: %+v", w.Stats().Extraction)
	}

	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var touched bool
	for _, f := range rp.Files {
		if strings.Contains(f.URI, "NL/HGN/BHZ") {
			if err := repo.Touch(f.AbsPath, time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			touched = true
			break
		}
	}
	if !touched {
		t.Fatal("no NL/HGN/BHZ file found")
	}

	// Run 3: stale zones for the touched file miss, it re-extracts; answer
	// must stay correct. Run 4: freshly collected zones prune it again.
	res3, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExact(res3.Batch); got != want {
		t.Errorf("post-touch result diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	mid := w.Stats().Extraction.RecordsSkipped
	res4, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderExact(res4.Batch); got != want {
		t.Errorf("re-collected result diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	after := w.Stats().Extraction.RecordsSkipped
	if after <= mid {
		t.Errorf("re-collected zones pruned nothing: skipped %d -> %d -> %d", base, mid, after)
	}
}

// TestExplainSurface checks the counters a \explain presentation consumes:
// Trace.Scans carries the per-scan skip tallies after zones exist.
func TestExplainSurface(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)
	const q = `SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 1000000000`
	if _, err := w.Query(q); err != nil {
		t.Fatal(err)
	}
	// QueryUncached: a result-cache hit would return a trace skeleton with
	// no scan reports; the warm-run skip tallies need a real execution.
	res, err := w.QueryUncached(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var skipped int64
	for _, sc := range res.Trace.Scans {
		skipped += sc.RecordsSkipped
	}
	if len(res.Trace.Scans) == 0 || skipped == 0 {
		t.Fatalf("warm trace reports no skipping: %+v", res.Trace.Scans)
	}
}

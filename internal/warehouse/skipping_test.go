package warehouse

import (
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
// budgets and requires both runs bit-identical to a NoSkipping oracle.
func TestSkippingOracleMatrix(t *testing.T) {
	dir := genRepo(t, 3000)
	ref, err := Open(dir, Options{Mode: Lazy, Workers: 1, Oracle: NoSkipping})
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
		t.Fatalf("NoSkipping oracle pruned: %+v", st.Extraction)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, morsel := range []int{7, 61} {
			for _, budget := range []int64{0, 2 << 20} {
				name := fmt.Sprintf("workers=%d/morsel=%d/budget=%d", workers, morsel, budget)
				w, err := Open(dir, Options{
					Mode: Lazy, Workers: workers, MorselRows: morsel, MemoryBudget: budget,
					// The second run must re-execute (not hit the result
					// cache) for the zone maps to prune anything.
					Oracle: NoQueryCache,
				})
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
							t.Errorf("%s run %d: diverged from NoSkipping oracle\nquery: %s\nwant:\n%s\ngot:\n%s",
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

// joinQ is a three-table spine whose SQL order builds the ~record-count
// mseed.records table before the 15-row mseed.files table; the
// statistics-driven order must flip them.
const joinQ = `SELECT F.station, COUNT(*), AVG(D.sample_value)
FROM mseed.data D
JOIN mseed.records R ON D.file_id = R.file_id AND D.seqno = R.seqno
JOIN mseed.files F ON D.file_id = F.file_id
WHERE F.station = 'ISK'
GROUP BY F.station`

// joinStarQ is joinQ's spine with no operator redefining the output: the
// sort and the limit read the spine, but the result is still every column
// of it, so the reordered plan must not narrow its scans. (It once did:
// ORDER BY made the spine look consumed and SELECT * came back four
// columns wide.)
const joinStarQ = `SELECT *
FROM mseed.data D
JOIN mseed.records R ON D.file_id = R.file_id AND D.seqno = R.seqno
JOIN mseed.files F ON D.file_id = F.file_id
WHERE F.station = 'ISK'
ORDER BY D.sample_value, D.sample_time LIMIT 5`

// TestJoinReorderOracle checks that the stats-driven join order actually
// reorders the spine (smallest estimated build side first) and that the
// provenance-restored result stays bit-identical to the SQL-order oracle.
func TestJoinReorderOracle(t *testing.T) {
	for _, q := range []string{joinQ, joinStarQ} {
		testJoinReorderOracle(t, q)
	}
}

func testJoinReorderOracle(t *testing.T, joinQ string) {
	dir := genRepo(t, 3000)
	ref, err := Open(dir, Options{Mode: Eager, Workers: 1, Oracle: NoSkipping})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Query(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	want := renderExact(res.Batch)
	if ref.Stats().Exec.JoinReorders != 0 {
		t.Fatal("NoSkipping oracle reordered a join")
	}

	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 2 << 20} {
			name := fmt.Sprintf("workers=%d/budget=%d", workers, budget)
			w, err := Open(dir, Options{Mode: Eager, Workers: workers, MemoryBudget: budget})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := w.Query(joinQ)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := renderExact(res.Batch); got != want {
				t.Errorf("%s: reordered join diverged from SQL-order oracle\nwant:\n%s\ngot:\n%s", name, want, got)
			}
			j := res.Trace.Join
			if j == nil || !j.Reordered {
				t.Fatalf("%s: join spine not reordered: %+v", name, j)
			}
			// Order[0] is the base scan; the first build side follows it.
			if len(j.Order) < 2 || !strings.Contains(j.Order[1], "mseed.files") {
				t.Errorf("%s: smallest build side should come first, got order %v (estimates %v)",
					name, j.Order, j.Estimates)
			}
			if w.Stats().Exec.JoinReorders == 0 {
				t.Errorf("%s: JoinReorders counter not bumped", name)
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

	ref, err := Open(dir, Options{Mode: Lazy, Workers: 1, Oracle: NoSkipping})
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
	w, err := Open(dir, Options{Mode: Lazy, Oracle: NoQueryCache})
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
	res, err := w.QueryUncached(q)
	if err != nil {
		t.Fatal(err)
	}
	var skipped int64
	for _, sc := range res.Trace.Scans {
		skipped += sc.RecordsSkipped + sc.RowsSkipped
	}
	if len(res.Trace.Scans) == 0 || skipped == 0 {
		t.Fatalf("warm trace reports no skipping: %+v", res.Trace.Scans)
	}
}

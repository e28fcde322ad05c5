package warehouse

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/seisgen"
)

// indexJoinQueries reach mseed.records through a join on file_id: the
// dataview's metadata join, with and without R.* predicates (derived from a
// D.sample_time window, or none), and explicit files ⋈ records joins under
// a point lookup and a GROUP BY.
var indexJoinQueries = []string{
	q2,
	`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
	 WHERE F.station = 'HGN' AND F.channel = 'BHZ'
	   AND D.sample_time >= '2010-01-12 02:00:00' AND D.sample_time < '2010-01-12 03:00:00'`,
	`SELECT F.uri, R.seqno, R.start_time, R.num_samples
	 FROM mseed.files F JOIN mseed.records R ON F.file_id = R.file_id
	 WHERE F.station = 'ISK' AND F.channel = 'BHE' AND R.seqno = 3`,
	`SELECT f.station, COUNT(*), MAX(r.seqno) FROM mseed.files f JOIN mseed.records r ON f.file_id = r.file_id
	 WHERE r.num_samples > 0 GROUP BY f.station ORDER BY f.station`,
}

// joinSpans lists the trace spans that say how a query's joins ran: hash
// builds ("join-build ...") and probe stages ("stage probe ...").
func joinSpans(n *obs.SpanNode) []string {
	if n == nil {
		return nil
	}
	var out []string
	if strings.HasPrefix(n.Name, "join-build ") || strings.HasPrefix(n.Name, "stage probe ") {
		out = append(out, n.Name)
	}
	for _, c := range n.Children {
		out = append(out, joinSpans(c)...)
	}
	return out
}

// checkJoinPath runs every indexJoinQueries statement on w and requires the
// reference answers, and that each join ran by index probe (index true: a
// "stage probe ... (index ...)" span, no build, and an "index on" join
// event) or by hash (a build span and a plain probe stage).
func checkJoinPath(t *testing.T, name string, w *Warehouse, want map[string]string, index bool) {
	t.Helper()
	for _, q := range indexJoinQueries {
		res, err := w.QueryUncached(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v\nquery: %s", name, err, q)
		}
		if got := renderExact(res.Batch); got != want[q] {
			t.Errorf("%s: answer diverged from the reference\nquery: %s\nwant:\n%s\ngot:\n%s", name, q, want[q], got)
		}
		spans := joinSpans(res.Trace.Spans)
		built := strings.Contains(strings.Join(spans, "\n"), "join-build ")
		probed := strings.Contains(strings.Join(spans, "\n"), "(index ")
		if built == index || probed != index {
			t.Errorf("%s: want index path %v, join spans %q\nquery: %s", name, index, spans, q)
		}
		if event := lastLog(w, "join"); strings.Contains(event, ": index on ") != index {
			t.Errorf("%s: join event %q, want index path %v\nquery: %s", name, event, index, q)
		}
	}
}

// referenceAnswers answers indexJoinQueries on the operator-at-a-time
// reference, whose joins are always hash joins.
func referenceAnswers(t *testing.T, dir string) map[string]string {
	t.Helper()
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noPipeline)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, q := range indexJoinQueries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("reference: %v\nquery: %s", err, q)
		}
		if res.Batch.NumRows() == 0 {
			t.Fatalf("reference: no rows, the cell is vacuous\nquery: %s", q)
		}
		want[q] = renderExact(res.Batch)
	}
	return want
}

// TestIndexJoinPathSelection checks that the data, not a setting, picks the
// join's access path: a loaded records table (stored in file_id order)
// takes the index probe, and so does a copy of it assembled row by row and
// installed through Store.Replace; the same records installed out of
// file_id order take the hash path — and all three answer as the reference
// does, row for row.
func TestIndexJoinPathSelection(t *testing.T) {
	dir := genRepo(t, 3000)
	want := referenceAnswers(t, dir)

	w := openWH(t, dir, Lazy)
	if !w.store.Snapshot().Sorted(catalog.TableRecords, "file_id") {
		t.Fatal("a loaded records table is not marked sorted on file_id")
	}
	checkJoinPath(t, "loaded", w, want, true)

	records, err := w.store.Table(catalog.TableRecords)
	if err != nil {
		t.Fatal(err)
	}

	// Whole files' records in reverse file_id order: each file's records
	// keep their order, so the hash path answers exactly as before.
	reversed := openWH(t, dir, Lazy)
	ids, _ := records.Col("file_id")
	var sel []int32
	for hi := records.NumRows(); hi > 0; {
		lo := hi - 1
		for lo > 0 && ids.Int64s()[lo-1] == ids.Int64s()[hi-1] {
			lo--
		}
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		hi = lo
	}
	if err := reversed.store.Replace(catalog.TableRecords, records.Gather(sel)); err != nil {
		t.Fatal(err)
	}
	if reversed.store.Snapshot().Sorted(catalog.TableRecords, "file_id") {
		t.Fatal("records out of file_id order are marked sorted")
	}
	checkJoinPath(t, "out of order", reversed, want, false)

	appended := openWH(t, dir, Lazy)
	var cols []*column.Column
	for _, name := range records.Names() {
		c, _ := records.Col(name)
		cols = append(cols, column.New(name, c.Type()))
	}
	for i := 0; i < records.NumRows(); i++ {
		for c, v := range records.Row(i) {
			if err := cols[c].AppendValue(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := appended.store.Replace(catalog.TableRecords, column.MustNewBatch(cols...)); err != nil {
		t.Fatal(err)
	}
	checkJoinPath(t, "appended", appended, want, true)
}

// TestIndexJoinAfterRefresh adds a station whose files sort into the middle
// of repository order, so every later file's file_id shifts: the refreshed
// records table is still stored in file_id order, the joins still take the
// index probe, and the answers are the reference's over the grown
// repository.
func TestIndexJoinAfterRefresh(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)
	checkJoinPath(t, "before refresh", w, referenceAnswers(t, dir), true)

	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		Stations:      []seisgen.Station{{Network: "NL", Code: "EXT"}}, // NL/DBN < NL/EXT < NL/HGN
		Channels:      []string{"BHZ"},
		SamplesPerDay: 3000,
		Seed:          7,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !w.store.Snapshot().Sorted(catalog.TableRecords, "file_id") {
		t.Fatal("the refreshed records table is not marked sorted on file_id")
	}
	res, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'EXT'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Batch.Row(0)[0].I; n != 3000 {
		t.Fatalf("the added station has %d samples, want 3000", n)
	}
	checkJoinPath(t, "after refresh", w, referenceAnswers(t, dir), true)
}

// TestIndexJoinErrorParity: a records predicate that cannot evaluate fails
// the query even when no file qualifies, so no probe row ever reaches the
// index — as the reference, which filters the whole records table, fails
// it — and with the reference's error text.
func TestIndexJoinErrorParity(t *testing.T) {
	dir := genRepo(t, 1000)
	w := openWH(t, dir, Lazy)
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noPipeline)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'NOPE' AND R.start_time > 'nope'`,
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'NOPE' AND R.seqno > 'abc'`,
		`SELECT f.station FROM mseed.files f JOIN mseed.records r ON f.file_id = r.file_id
		 WHERE f.station = 'NOPE' AND r.start_time > 'nope'`,
	} {
		_, refErr := ref.Query(q)
		if refErr == nil {
			t.Fatalf("the reference answered\nquery: %s", q)
		}
		_, err := w.Query(q)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("pipelined error %v, reference error %v\nquery: %s", err, refErr, q)
		}
	}
	// A predicate behind one that keeps no record is never evaluated, by
	// either engine.
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE R.seqno < 0 AND R.start_time > 'nope'`
	if _, err := ref.Query(q); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if _, err := w.Query(q); err != nil {
		t.Errorf("pipelined: %v", err)
	}
}

// TestIndexJoinCountsSkippedRecords: the records an index-probed join never
// looked at count as skipped scan rows, and no hash build is counted.
func TestIndexJoinCountsSkippedRecords(t *testing.T) {
	dir := genRepo(t, 3000)
	w := openWH(t, dir, Lazy)
	if _, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	records := int64(w.store.Snapshot().Rows(catalog.TableRecords))
	var examined, kept int64
	event := lastLog(w, "join")
	if _, err := fmt.Sscanf(event, "F.file_id = R.file_id: index on R.file_id: 1 probe rows, %d rows examined -> %d rows", &examined, &kept); err != nil {
		t.Fatalf("join event %q: %v", event, err)
	}
	if examined == 0 || examined != kept || examined >= records {
		t.Errorf("one file's %d records examined, %d kept, of %d", examined, kept, records)
	}
	if st.Exec.ScanRowsSkipped != records-examined {
		t.Errorf("ScanRowsSkipped = %d, want %d", st.Exec.ScanRowsSkipped, records-examined)
	}
	if st.Exec.JoinBuilds != 0 || st.Exec.JoinBuildRows != 0 {
		t.Errorf("an index probe counted as a hash build: %+v", st.Exec)
	}
}

package warehouse

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/recycler"
	"repro/internal/reference"
	"repro/internal/sql"
)

// renderExact renders a batch preserving row order and full float bit
// patterns: equality means bit identity with the oracle, not tolerance.
func renderExact(b *column.Batch) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(b.Names(), ","))
	sb.WriteByte('\n')
	for i := 0; i < b.NumRows(); i++ {
		for _, v := range b.Row(i) {
			if v.Null {
				sb.WriteString("∅")
			} else if v.Type == column.Float64 {
				sb.WriteString(strconv.FormatFloat(v.F, 'x', -1, 64))
			} else {
				sb.WriteString(v.String())
			}
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// pipelineMatrixQueries exercise every pipeline shape: grouped aggregation
// over the lazy stream, global aggregation, a raw collect with a data
// predicate, post-pipeline breakers (ORDER BY / LIMIT), the two governed
// spillQueries (the second a Scan-leaf hash join whose build spills under
// the small budgets), and an explicit two-table join on file_id feeding
// GROUP BY / ORDER BY, which the records table's file_id order answers by
// index probe.
var pipelineMatrixQueries = []string{
	q2,
	`SELECT COUNT(*), AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.channel = 'BHZ'`,
	`SELECT D.sample_time, D.sample_value FROM mseed.dataview
	 WHERE F.station = 'ISK' AND F.channel = 'BHE' AND D.sample_value > 50`,
	`SELECT F.channel, COUNT(*), SUM(D.sample_value) FROM mseed.dataview
	 WHERE F.network = 'KO' GROUP BY F.channel ORDER BY F.channel LIMIT 2`,
	spillQueries[0],
	spillQueries[1],
	`SELECT f.station, COUNT(*), MAX(r.seqno), AVG(r.sample_rate)
	 FROM mseed.files f JOIN mseed.records r ON f.file_id = r.file_id
	 WHERE r.num_samples > 0 GROUP BY f.station ORDER BY f.station`,
}

// narrowMatrixQueries are chosen by which universal-table columns they read,
// because the pipelined extraction replicates only those, and its metadata
// subplan carries only those and what extraction reads, while the
// noPipeline reference runs everything at full width: nothing but a row
// count; one D.* column or the other; an R.* expression in the select list
// and the sort key; string group keys beside a D.* filter; F.* and R.*
// predicate columns no operator above the scans reads; a filter over F and
// R between the join and the extract, its columns read nowhere else; R.*
// group keys; F.uri and R.file_offset, which extraction reads too, in the
// select list; and a bare SELECT *, which must stay full width.
var narrowMatrixQueries = []string{
	`SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`,
	`SELECT MIN(D.sample_time), MAX(D.sample_time) FROM mseed.dataview WHERE F.station = 'ISK'`,
	`SELECT SUM(D.sample_value) FROM mseed.dataview WHERE F.station = 'HGN'`,
	`SELECT R.seqno, R.num_samples * 2, D.sample_time FROM mseed.dataview
	 WHERE F.station = 'ISK' AND F.channel = 'BHE' AND D.sample_value > 100
	 ORDER BY R.num_samples * 2 DESC, D.sample_time LIMIT 50`,
	`SELECT F.channel, F.station, COUNT(*), AVG(D.sample_value) FROM mseed.dataview
	 WHERE D.sample_value > 0 GROUP BY F.channel, F.station`,
	`SELECT SUM(D.sample_value), COUNT(*) FROM mseed.dataview
	 WHERE F.location = '' AND F.quality <> 'X' AND R.sample_rate > 1 AND R.end_time > '2010-01-12 00:00:10'`,
	`SELECT R.seqno, MAX(D.sample_value) FROM mseed.dataview
	 WHERE F.network = 'NL' AND R.start_time + 20000000000 < F.end_time GROUP BY R.seqno`,
	`SELECT R.seqno, R.start_time, COUNT(*), MIN(D.sample_value) FROM mseed.dataview
	 WHERE F.channel = 'BHZ' GROUP BY R.seqno, R.start_time`,
	`SELECT F.uri, R.file_offset, D.sample_value FROM mseed.dataview
	 WHERE F.station = 'DBN' AND D.sample_value > 200 ORDER BY F.uri, R.file_offset, D.sample_value LIMIT 30`,
	selectStarQuery,
}

// runMatrixQueries group on the universal table's metadata columns, which
// the extraction stream hands over as constant runs and the noPipeline
// reference gets expanded — so each cell compares the grouped aggregate's
// per-run walk against its per-row walk: a composite and a single integer
// run key; a run key beside a computed one, which takes the row walk over a
// run column; run-form aggregate arguments, grouped and global; and a D.*
// filter whose selection cuts runs mid-way and empties some (q2, the
// all-runs headline, is in pipelineMatrixQueries). The value is whether the
// "aggregate" event must report runs.
var runMatrixQueries = map[string]bool{
	`SELECT F.station, R.seqno, COUNT(*), MIN(D.sample_value), AVG(D.sample_value) FROM mseed.dataview
	 WHERE F.channel = 'BHZ' GROUP BY F.station, R.seqno`: true,
	`SELECT R.seqno, COUNT(*), MIN(D.sample_time), SUM(D.sample_value) FROM mseed.dataview
	 WHERE F.station = 'ISK' GROUP BY R.seqno`: true,
	`SELECT F.station, COUNT(*), SUM(D.sample_value) FROM mseed.dataview
	 WHERE F.network = 'NL' GROUP BY F.station, D.sample_value > 0`: false,
	`SELECT F.station, SUM(R.num_samples), AVG(R.sample_rate), COUNT(DISTINCT F.station), MIN(F.station),
	        COUNT(1), SUM(1.5), COUNT(DISTINCT D.sample_value)
	 FROM mseed.dataview WHERE F.channel = 'BHE' GROUP BY F.station`: true,
	`SELECT SUM(R.num_samples), AVG(R.sample_rate), COUNT(DISTINCT F.station), MIN(F.station), SUM(1)
	 FROM mseed.dataview WHERE F.network = 'NL'`: false,
	runsCutBySelection: true,
}

// runsCutBySelection keeps only the samples above a threshold that whole
// records of the quiet hours never reach.
const runsCutBySelection = `SELECT F.station, R.seqno, COUNT(*), MAX(D.sample_value), SUM(R.num_samples)
	 FROM mseed.dataview WHERE F.channel = 'BHN' AND D.sample_value > 150 GROUP BY F.station, R.seqno`

// nanMidStream divides by zero wherever a sample equals 3, which `/` answers
// with NaN: a global MIN/MAX that meets NaNs mid-stream, at the head of some
// morsel at every morsel size. A NaN never displaces an established bound,
// wherever the stream was cut. Lazy folds it over whole morsels, External
// over the F.* filter's selection.
const nanMidStream = `SELECT MIN(D.sample_value / (D.sample_value - 3)), MAX(D.sample_value / (D.sample_value - 3))
	 FROM mseed.dataview WHERE F.channel = 'BHZ'`

const selectStarQuery = `SELECT * FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE' LIMIT 40`

// joinedExtractPlan is the dataview under an explicit join — a shape Build
// never emits but Execute accepts: the narrowed extraction (filtered on a
// D.* column) probes a build of mseed.records, and the projection reads
// one column from each side. Cols is what Build's needed-column walk
// derives for this tree (plan.TestSpineNeedsUnderJoin).
func joinedExtractPlan(t *testing.T) plan.Node {
	return &plan.Project{
		Child: &plan.Join{
			L: &plan.Filter{
				Child: &plan.LazyExtract{
					Meta: &plan.Join{
						L:     &plan.Scan{Table: catalog.TableFiles, Prefix: "F.", Preds: sql.SplitConjuncts(mustWhere(t, "F.channel = 'BHZ'"))},
						R:     &plan.Scan{Table: catalog.TableRecords, Prefix: "R."},
						LKeys: []string{"F.file_id"}, RKeys: []string{"R.file_id"},
					},
					Cols: []string{"F.file_id", "F.station", "R.seqno", "D.sample_value"},
				},
				Preds: sql.SplitConjuncts(mustWhere(t, "D.sample_value > 0")),
			},
			R:     &plan.Scan{Table: catalog.TableRecords, Prefix: "G."},
			LKeys: []string{"F.file_id", "R.seqno"}, RKeys: []string{"G.file_id", "G.seqno"},
		},
		Exprs: []sql.Expr{&sql.ColumnRef{Name: "F.station"}, &sql.ColumnRef{Name: "G.num_samples"}, &sql.ColumnRef{Name: "D.sample_value"}},
		Names: []string{"F.station", "G.num_samples", "D.sample_value"},
	}
}

// eagerMatrixQuery runs the dataview over the loaded data table: a
// three-table join spine under a filter and a grouped aggregate.
const eagerMatrixQuery = `SELECT F.station, COUNT(*), AVG(D.sample_value) FROM mseed.dataview
	 WHERE F.channel = 'BHZ' AND D.sample_value > 0 GROUP BY F.station`

// materializingSpan reports the first span in the tree that only the
// operator-at-a-time reference engine emits: "aggregate", "join <keys>" or
// "filter <preds>". Pipelines emit "join-build" (hash joins only),
// "stage probe ...", "stage filter ...", "stage aggregate" and
// "stage collect" instead.
func materializingSpan(n *obs.SpanNode) string {
	if n == nil {
		return ""
	}
	if n.Name == "aggregate" || strings.HasPrefix(n.Name, "join ") || strings.HasPrefix(n.Name, "filter ") {
		return n.Name
	}
	for _, c := range n.Children {
		if name := materializingSpan(c); name != "" {
			return name
		}
	}
	return ""
}

// lastLog returns the detail of the newest operation-log entry of one op.
func lastLog(w *Warehouse, op string) string {
	log := w.Log()
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Op == op {
			return log[i].Detail
		}
	}
	return ""
}

// requireIdle fails unless the warehouse's ledgers are back at their idle
// values — the root ledger holds exactly the recycler's and the result
// cache's bytes, so no query child ledger or operator grant leaked — and
// the query left no spill directory under root.
func requireIdle(t *testing.T, name string, w *Warehouse, root string) {
	t.Helper()
	st := w.Stats()
	if st.Mem.Used != st.CacheBytes+st.QueryCache.ResultBytes {
		t.Errorf("%s: ledger holds %d bytes, recycler %d + result cache %d account for it",
			name, st.Mem.Used, st.CacheBytes, st.QueryCache.ResultBytes)
	}
	if st.InFlight != 0 {
		t.Errorf("%s: %d admission slots still held", name, st.InFlight)
	}
	if left, _ := filepath.Glob(filepath.Join(root, "lazyetl-spill-*")); len(left) != 0 {
		t.Errorf("%s: spill dirs left behind: %v", name, left)
	}
}

// TestPipelineOracleMatrix runs every matrix query across worker counts x
// morsel sizes x memory budgets and requires output bit-identical to the
// serial reference (noPipeline, one worker, unlimited) — from pipelines
// alone: under no budget may a span of the reference engine appear. The
// reference extracts the universal table at full width, the pipelines only
// the columns each statement reads, so every lazy and external cell also
// compares narrow against wide — and, for the metadata columns, constant
// runs against one value per row (runMatrixQueries). The 4 KiB budget spills
// the hash join builds, so each cell also crosses the spilled-build breaker,
// and must leave ledgers and the spill root idle. The cells of one morsel
// size run under noSkipping, which hashes the files ⋈ records join the
// others answer by index probe, over the same narrowed scans.
func TestPipelineOracleMatrix(t *testing.T) {
	dir := genRepo(t, 3000)
	// Spill dirs go under the system temp dir; point it at a private root
	// so "nothing left behind" is checkable without racing other tests.
	spillRoot := t.TempDir()
	t.Setenv("TMPDIR", spillRoot)

	var runQueries []string
	for q := range runMatrixQueries {
		runQueries = append(runQueries, q)
	}
	modes := []struct {
		mode    Mode
		queries []string
	}{
		{Lazy, append(append(append([]string{nanMidStream}, pipelineMatrixQueries...), narrowMatrixQueries...), runQueries...)},
		// External mode filters metadata above the extraction, so the same
		// statements read a different column set there — and the F.* filter
		// hands the aggregate a selection over the run columns. Its metadata
		// join is an index probe; the hash join that spills is spillQueries[1].
		{External, append(append([]string{nanMidStream, spillQueries[1]}, narrowMatrixQueries...), runQueries...)},
		// joinQ's spine runs in its SQL order: a two-key hash probe of
		// mseed.records, then an index probe of mseed.files.
		{Eager, []string{eagerMatrixQuery, joinQ}},
	}
	for _, m := range modes {
		ref, err := openOracle(dir, Options{Mode: m.mode, Workers: 1}, noPipeline)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]string)
		for _, q := range m.queries {
			res, err := ref.Query(q)
			if err != nil {
				t.Fatalf("oracle: %v\nquery: %s", err, q)
			}
			want[q] = renderExact(res.Batch)
		}
		if got := ref.Stats().Exec.Pipelines; got != 0 {
			t.Fatalf("oracle warehouse ran %d pipelines despite noPipeline", got)
		}
		var joined plan.Node
		if m.mode == Lazy {
			joined = joinedExtractPlan(t)
			b, err := reference.Execute(joined, &plan.Env{Store: ref.store.Snapshot(), Source: ref.engine})
			if err != nil {
				t.Fatalf("oracle, dataview under a join: %v", err)
			}
			if b.NumRows() == 0 {
				t.Fatal("oracle, dataview under a join: no rows; the cell is vacuous")
			}
			want["joined"] = renderExact(b)
		}
		if cut, ok := want[runsCutBySelection]; ok {
			all, err := ref.Query(strings.Replace(runsCutBySelection, "AND D.sample_value > 150", "", 1))
			if err != nil {
				t.Fatal(err)
			}
			if kept := strings.Count(cut, "\n") - 1; kept == 0 || kept >= all.Batch.NumRows() {
				t.Fatalf("the D.* filter leaves %d of %d records a live sample; the cell needs some emptied, not all", kept, all.Batch.NumRows())
			}
		}
		if minmax, ok := want[nanMidStream]; ok {
			zeros, err := ref.Query(`SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ' AND D.sample_value = 3`)
			if err != nil {
				t.Fatal(err)
			}
			if zeros.Batch.Row(0)[0].I == 0 || strings.Contains(minmax, "NaN") {
				t.Fatalf("%d zero divisors, answer %q: the cell needs NaNs in the stream and bounds they did not displace", zeros.Batch.Row(0)[0].I, minmax)
			}
		}
		if star, ok := want[selectStarQuery]; ok {
			var names []string
			for _, cd := range catalog.DataviewColumns() {
				names = append(names, cd.Name)
			}
			if header, _, _ := strings.Cut(star, "\n"); header != strings.Join(names, ",") {
				t.Fatalf("SELECT * is not the dataview's columns in order: %s", header)
			}
		}

		for _, workers := range []int{1, 2, 8} {
			for _, morsel := range []int{7, 13, 61} {
				for _, budget := range []int64{0, 2 << 20, 4 << 10} {
					var o oracle
					if morsel == 13 {
						o = noSkipping
					}
					name := fmt.Sprintf("%v/workers=%d/morsel=%d/budget=%d/noSkipping=%v", m.mode, workers, morsel, budget, o != 0)
					w, err := openOracle(dir, Options{
						Mode: m.mode, Workers: workers, morselRows: morsel, MemoryBudget: budget,
					}, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, q := range m.queries {
						res, err := w.Query(q)
						if err != nil {
							t.Fatalf("%s: %v\nquery: %s", name, err, q)
						}
						if got := renderExact(res.Batch); got != want[q] {
							t.Errorf("%s: output diverged from the serial reference\nquery: %s\nwant:\n%s\ngot:\n%s",
								name, q, want[q], got)
						}
						if wantRuns, ok := runMatrixQueries[q]; ok || q == q2 {
							if event := lastLog(w, "aggregate"); strings.Contains(event, " runs -> ") != (wantRuns || q == q2) {
								t.Errorf("%s: aggregate event %q, want it to report runs: %v\nquery: %s", name, event, wantRuns || q == q2, q)
							}
						}
						if span := materializingSpan(res.Trace.Spans); span != "" {
							t.Errorf("%s: span %q of the reference engine in a production trace\nquery: %s\n%s",
								name, span, q, obs.Render(res.Trace.Spans))
						}
					}
					st := w.Stats()
					if st.Exec.Pipelines == 0 {
						t.Errorf("%s: no pipelined executions recorded", name)
					}
					if st.Exec.FilterRowsIn == 0 || st.Exec.FilterRowsOut > st.Exec.FilterRowsIn {
						t.Errorf("%s: filter stage counters not threaded: in=%d out=%d",
							name, st.Exec.FilterRowsIn, st.Exec.FilterRowsOut)
					}
					if budget == 4<<10 && st.Exec.PartitionsSpilled == 0 {
						t.Errorf("%s: a 4 KiB budget must spill join builds; exec stats = %+v", name, st.Exec)
					}
					if budget == 0 && st.Exec.PartitionsSpilled != 0 {
						t.Errorf("%s: unlimited warehouse spilled: %+v", name, st.Exec)
					}
					requireIdle(t, name, w, spillRoot)
				}
			}
		}
	}
}

// TestBareTableReadIsTheStoredBatch: a bare table read runs as a pipeline
// with no stage, which collects to the stored batch itself rather than a
// copy — the eager data join's build side is such a read of mseed.data.
func TestBareTableReadIsTheStoredBatch(t *testing.T) {
	w := openWH(t, genRepo(t, 1000), Eager)
	store := w.store.Snapshot()
	want, err := store.Table(catalog.TableData)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Execute(&plan.Scan{Table: catalog.TableData}, &plan.Env{Store: store})
	if err != nil || got != want {
		t.Fatalf("bare read of %s: %p, %v; want the stored batch %p", catalog.TableData, got, err, want)
	}
}

// TestPipelinePrefetchOverlap checks that a cold lazy scan over many files
// actually overlaps extract with compute: background workers decode runs
// ahead of the pipeline, visible in the prefetch counters.
func TestPipelinePrefetchOverlap(t *testing.T) {
	dir := genRepo(t, 3000)
	w, err := Open(dir, Options{
		Mode: Lazy, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Batch.Row(0)[0].I; got != 45_000 {
		t.Fatalf("count = %d, want 45000", got)
	}
	st := w.Stats()
	if st.Exec.Pipelines == 0 {
		t.Error("query did not run pipelined")
	}
	if st.Extraction.PrefetchedRuns == 0 {
		t.Errorf("cold 15-file scan prefetched no runs: %+v", st.Extraction)
	}
	if st.Extraction.RunsRead < 15 {
		t.Errorf("runs read = %d, want >= 15 (one per file)", st.Extraction.RunsRead)
	}

	// Warm re-run: pure cache reads, same answer, no new extraction.
	cold := st.Extraction.Extractions
	res2, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Batch.Row(0)[0].I != 45_000 {
		t.Fatalf("warm count = %d", res2.Batch.Row(0)[0].I)
	}
	if got := w.Stats().Extraction.Extractions; got != cold {
		t.Errorf("warm run extracted: %d -> %d", cold, got)
	}
}

// trackedSource wraps the warehouse's extraction engine so a test sees
// every stream it opens and whether the pipeline closed it.
type trackedSource struct {
	*etl.Engine
	opened, closed int
}

func (s *trackedSource) ExtractStream(ctx context.Context, meta *column.Batch, cols []string, prune *plan.PruneRange, win *plan.SampleWindow, answer plan.ZoneAnswer, o plan.Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error) {
	src, err := s.Engine.ExtractStream(ctx, meta, cols, prune, win, answer, o, morselRows, width, led)
	if err != nil || src == nil {
		return src, err
	}
	s.opened++
	return &trackedStream{BatchSource: src, closed: &s.closed}, nil
}

type trackedStream struct {
	exec.BatchSource
	closed *int
}

func (s *trackedStream) Close() {
	*s.closed++
	s.BatchSource.Close()
}

// TestSpilledBuildBreakerReleasesOnEveryPath drives the spilled-build
// breaker with a live extraction stream under it — a join above the lazy
// extraction, which Build never emits but Execute accepts — and fails it
// at each step. Whatever the exit, the stream is closed exactly once, the
// query ledger drains to zero, and Cleanup leaves the spill root empty.
func TestSpilledBuildBreakerReleasesOnEveryPath(t *testing.T) {
	dir := genRepo(t, 2000)
	w := openWH(t, dir, Lazy)
	badPred := mustWhere(t, "F.station > 5") // type error at evaluation time
	lazy := func() plan.Node {
		return &plan.LazyExtract{Meta: &plan.Join{
			L:     &plan.Scan{Table: catalog.TableFiles, Prefix: "F.", Preds: sql.SplitConjuncts(mustWhere(t, "F.channel = 'BHZ'"))},
			R:     &plan.Scan{Table: catalog.TableRecords, Prefix: "R."},
			LKeys: []string{"F.file_id"}, RKeys: []string{"R.file_id"},
		}}
	}
	// The build side is the ~2000-row records table again: far past 4 KiB,
	// so every partition of the upper join's build spills.
	upper := func(l plan.Node, rkey string) plan.Node {
		return &plan.Join{
			L: l, R: &plan.Scan{Table: catalog.TableRecords, Prefix: "G."},
			LKeys: []string{"F.file_id", "R.seqno"}, RKeys: []string{"G.file_id", rkey},
		}
	}
	cases := []struct {
		name    string
		root    plan.Node
		wantErr string // "" = must succeed
		spills  bool   // the upper join's build ran and spilled
	}{
		{"build fails", upper(lazy(), "G.no_such_column"), "join key", false},
		{"collect fails", upper(&plan.Filter{Child: lazy(), Preds: []sql.Expr{badPred}}, "G.seqno"), "F.station", true},
		{"success", upper(lazy(), "G.seqno"), "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			led := mem.New(4 << 10)
			qm := exec.NewQueryMem(led, root)
			src := &trackedSource{Engine: w.engine}
			var stats plan.ExecStats
			env := &plan.Env{Store: w.store.Snapshot(), Source: src, Pool: exec.NewPoolMorsel(2, 61), Mem: qm, Stats: &stats}
			out, err := plan.Execute(tc.root, env)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				ref, err := reference.Execute(tc.root, &plan.Env{Store: env.Store, Source: w.engine})
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if got, want := renderExact(out), renderExact(ref); got != want {
					t.Errorf("breaker over a stream diverged from the serial reference\nwant:\n%s\ngot:\n%s", want, got)
				}
				if stats.Snapshot().PartitionsSpilled == 0 {
					t.Error("setup: the upper join's build did not spill")
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want an error naming %q, got %v", tc.wantErr, err)
			}
			if src.opened != 1 || src.closed != 1 {
				t.Errorf("stream opened %d times, closed %d times; want 1 and 1", src.opened, src.closed)
			}
			if used := led.Used(); used != 0 {
				t.Errorf("query ledger holds %d bytes after the run", used)
			}
			entries, _ := os.ReadDir(root)
			if tc.spills && len(entries) == 0 {
				t.Error("setup: no spill dir was created, the build did not spill")
			}
			if err := qm.Cleanup(); err != nil {
				t.Fatal(err)
			}
			if entries, _ := os.ReadDir(root); len(entries) != 0 {
				t.Errorf("Cleanup left %d entries under the spill root", len(entries))
			}
		})
	}
}

func mustWhere(t *testing.T, cond string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.Where
}

// TestMorselViewsNeverMutateRecycler pins the contract that lets a morsel's
// D.sample_value be a view of the buffer the recycler's entries view: no
// operator writes to a column a source handed it. Every cached entry is
// checksummed, the whole oracle matrix — filters, joins, sorts, LIMIT,
// SELECT *, grouped and global folds — then runs warm from several clients
// at once, answers checked against the serial reference, and the checksums
// must not have moved. Under -race a write to a shared buffer is a reported
// race as well.
func TestMorselViewsNeverMutateRecycler(t *testing.T) {
	dir := genRepo(t, 3000)
	queries := append(append([]string{nanMidStream}, pipelineMatrixQueries...), narrowMatrixQueries...)
	for q := range runMatrixQueries {
		queries = append(queries, q)
	}
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noPipeline)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, q := range queries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = renderExact(res.Batch)
	}

	for _, morsel := range []int{61, 0} {
		w, err := Open(dir, Options{Mode: Lazy, Workers: 4, morselRows: morsel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview`); err != nil {
			t.Fatal(err)
		}
		cache := w.Engine().Cache()
		checksums := func() map[recycler.Key]uint64 {
			sums := make(map[recycler.Key]uint64)
			for _, ce := range cache.Contents() {
				ent, ok := cache.Lookup(ce.Key, ce.FileMtime, ce.FileSize)
				if !ok {
					t.Fatalf("entry %v vanished from the recycler", ce.Key)
				}
				h := fnv.New64a()
				var b [8]byte
				for _, v := range append([]float64{float64(ent.Start), ent.Rate}, ent.Values...) {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
				sums[ce.Key] = h.Sum64()
			}
			return sums
		}
		before := checksums()
		if len(before) == 0 {
			t.Fatal("the warming scan cached nothing; the test is vacuous")
		}
		extractions := w.Engine().ExtractionStats().Extractions

		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for x := range queries {
					q := queries[(x+c*7)%len(queries)]
					res, err := w.QueryUncached(context.Background(), q)
					if err != nil {
						t.Errorf("morsel=%d: %v\nquery: %s", morsel, err, q)
						return
					}
					if got := renderExact(res.Batch); got != want[q] {
						t.Errorf("morsel=%d: warm output diverged from the serial reference\nquery: %s", morsel, q)
					}
				}
			}(c)
		}
		wg.Wait()
		if got := w.Engine().ExtractionStats().Extractions; got != extractions {
			t.Errorf("morsel=%d: the matrix decoded %d records; it was to run from the recycler", morsel, got-extractions)
		}
		after := checksums()
		if len(after) != len(before) {
			t.Fatalf("morsel=%d: recycler holds %d entries, %d before the matrix", morsel, len(after), len(before))
		}
		for k, sum := range before {
			if after[k] != sum {
				t.Errorf("morsel=%d: cached entry %v changed under the queries that viewed it", morsel, k)
			}
		}
	}
}

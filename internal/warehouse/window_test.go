package warehouse

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/etl"
)

// windowCase is one D.sample_time window, written as the conjuncts the
// planner lifts into the extraction's sample window.
type windowCase struct {
	name  string
	conj  []string
	empty bool // the window admits no sample
}

// lifted is the window as written; unliftable is the same statement with
// every conjunct under an OR, which the planner neither lifts nor derives
// metadata predicates from, so the Filter applies it sample by sample.
func (c windowCase) lifted() string { return strings.Join(c.conj, " AND ") }

func (c windowCase) unliftable() string {
	parts := make([]string, len(c.conj))
	for i, p := range c.conj {
		parts[i] = "(" + p + " OR 1 = 0)"
	}
	return strings.Join(parts, " AND ")
}

// windowShapes cover the statements a window meets: the benchmark's
// cold-scan aggregate (D.sample_time read by nothing else), a raw fetch that
// projects D.sample_time, a GROUP BY over a run column beside an unliftable
// value predicate, and a bare COUNT(*).
var windowShapes = []string{
	`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
	 WHERE F.channel = 'BHZ' AND %s`,
	`SELECT D.sample_time, D.sample_value FROM mseed.dataview WHERE F.station = 'ISK' AND %s`,
	`SELECT F.station, COUNT(*), SUM(D.sample_value) FROM mseed.dataview
	 WHERE %s AND D.sample_value > -50 GROUP BY F.station ORDER BY F.station`,
	`SELECT COUNT(*) FROM mseed.dataview WHERE %s`,
}

// recordEdges returns the start of the third record and the end of the
// fifth of one series, in ns: a window bounded by them starts and ends
// exactly on sample times that are record edges.
func recordEdges(t *testing.T, w *Warehouse) (start, end int64) {
	t.Helper()
	res, err := w.Query(`SELECT MIN(R.start_time), MAX(R.end_time) FROM mseed.dataview
		WHERE F.station = 'HGN' AND F.channel = 'BHN' AND R.seqno >= 3 AND R.seqno <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Batch.Row(0)
	if row[0].Null || row[1].Null || row[0].I >= row[1].I {
		t.Fatalf("record edges %v", row)
	}
	return row[0].I, row[1].I
}

// TestSampleWindowMetamorphic holds the record-edge cut to the per-sample
// filter it replaced. Each window — BETWEEN, a literal on the left, integer
// ns literals, = on an exact sample time, bounds on record edges, an empty
// window — is run through every shape three ways: lifted on the pipelines
// (extraction cuts records), lifted on the noPipeline reference (which
// extracts every sample and filters), and in an unliftable form on the
// pipelines (the Filter compares every sample). All three agree bit for bit
// at every worker count, morsel size and budget, with a cold and a warm
// recycler.
func TestSampleWindowMetamorphic(t *testing.T) {
	dir := genRepo(t, 3000)
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noPipeline)
	if err != nil {
		t.Fatal(err)
	}
	recStart, recEnd := recordEdges(t, ref)
	cases := []windowCase{
		{name: "between", conj: []string{`D.sample_time BETWEEN '2010-01-12T00:00:10.0125' AND '2010-01-12T00:00:40'`}},
		{name: "literal on the left", conj: []string{`'2010-01-12T00:00:20' <= D.sample_time`, `'2010-01-12T00:00:50.5' > D.sample_time`}},
		{name: "integer ns", conj: []string{`D.sample_time > 1263254412000000000`, `D.sample_time <= 1263254433337000000`}},
		{name: "equal to a sample time", conj: []string{`D.sample_time = '2010-01-12T00:00:30.025'`}},
		{name: "record edges", conj: []string{fmt.Sprintf("D.sample_time >= %d", recStart), fmt.Sprintf("D.sample_time <= %d", recEnd)}},
		{name: "empty", conj: []string{`D.sample_time > '2010-01-12T00:00:40'`, `D.sample_time < '2010-01-12T00:00:20'`}, empty: true},
	}

	type stmt struct{ lifted, unliftable string }
	var stmts []stmt
	want := make(map[string]string)
	for _, c := range cases {
		for _, shape := range windowShapes {
			s := stmt{fmt.Sprintf(shape, c.lifted()), fmt.Sprintf(shape, c.unliftable())}
			stmts = append(stmts, s)
			res, err := ref.Query(s.lifted)
			if err != nil {
				t.Fatalf("reference: %v\nquery: %s", err, s.lifted)
			}
			if !strings.Contains(res.Trace.Optimized(), "(sample window: ") {
				t.Fatalf("%s: the window was not lifted:\n%s", c.name, res.Trace.Optimized())
			}
			want[s.lifted] = renderExact(res.Batch)
			unl, err := ref.Query(s.unliftable)
			if err != nil {
				t.Fatalf("reference: %v\nquery: %s", err, s.unliftable)
			}
			if strings.Contains(unl.Trace.Optimized(), "sample window") {
				t.Fatalf("%s: the unliftable form was lifted:\n%s", c.name, unl.Trace.Optimized())
			}
			if got := renderExact(unl.Batch); got != want[s.lifted] {
				t.Fatalf("%s: reference differs between the lifted and the unliftable form\nquery: %s\nlifted:\n%s\nunliftable:\n%s",
					c.name, s.lifted, want[s.lifted], got)
			}
		}
		// The windows are not vacuous: the COUNT(*) shape (last) counts
		// some samples, but not every one, unless the window is empty.
		count := want[stmts[len(stmts)-1].lifted]
		if c.empty != (count == "COUNT(*)\n0|\n") || strings.Contains(count, "45000|") {
			t.Fatalf("%s: window counts %q", c.name, count)
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, morsel := range []int{7, 13, 61} {
			for _, budget := range []int64{0, 2 << 20} {
				for _, warm := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/morsel=%d/budget=%d/warm=%v", workers, morsel, budget, warm)
					w, err := Open(dir, Options{
						Mode: Lazy, Workers: workers, morselRows: morsel, MemoryBudget: budget,
						ETL: etl.Options{DisableCache: !warm},
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if warm {
						if _, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview`); err != nil {
							t.Fatal(err)
						}
					}
					var trimmed int64
					for _, s := range stmts {
						for _, q := range []string{s.lifted, s.unliftable} {
							res, err := w.QueryUncached(context.Background(), q)
							if err != nil {
								t.Fatalf("%s: %v\nquery: %s", name, err, q)
							}
							if got := renderExact(res.Batch); got != want[s.lifted] {
								t.Errorf("%s: output diverged from the reference\nquery: %s\nwant:\n%s\ngot:\n%s", name, q, want[s.lifted], got)
							}
							for _, sc := range res.Trace.Scans {
								trimmed += sc.SamplesTrimmed
							}
						}
					}
					if trimmed == 0 {
						t.Errorf("%s: no window trimmed a sample", name)
					}
					requireIdle(t, name, w, t.TempDir())
				}
			}
		}
	}
}

// TestSampleTimeLiteralErrorNamesConjunct: a D.sample_time literal that does
// not parse fails the query with an error naming the conjunct the user
// wrote — not an R.end_time predicate derived from it — on the pipelines and
// on the noPipeline reference alike, beside a window that keeps rows or
// alone.
func TestSampleTimeLiteralErrorNamesConjunct(t *testing.T) {
	dir := genRepo(t, 3000)
	pipelined := openWH(t, dir, Lazy)
	ref, err := openOracle(dir, Options{Mode: Lazy, Workers: 1}, noPipeline)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND D.sample_time > 'garbage'`,
		`SELECT AVG(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK'
		 AND D.sample_time >= '2010-01-12T00:00:10' AND D.sample_time > 'garbage'`,
	} {
		for _, w := range []*Warehouse{pipelined, ref} {
			_, err := w.Query(q)
			if err == nil || !strings.Contains(err.Error(), `(D.sample_time > 'garbage')`) ||
				!strings.Contains(err.Error(), `cannot parse timestamp literal "garbage"`) || strings.Contains(err.Error(), "end_time") {
				t.Errorf("oracle %v: error %v does not name the conjunct written\nquery: %s", w.oracle, err, q)
			}
		}
	}
}

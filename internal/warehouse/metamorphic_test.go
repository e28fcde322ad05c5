package warehouse

import (
	"context"
	"fmt"
	"testing"
)

// TestNullLiteralComparisons: a NULL literal compared with a column of any
// type matches no row — it is not a type error, whatever the column's type —
// in the metadata tables, above an extraction and inside an IN list, on the
// pipelines and on the reference alike. (A comparison with NULL is false, so
// an IN list keeps the rows its other values match.)
func TestNullLiteralComparisons(t *testing.T) {
	dir := genRepo(t, 3000)
	cases := []struct{ q, same string }{
		{`SELECT COUNT(*) FROM mseed.files WHERE station = NULL`, `SELECT COUNT(*) FROM mseed.files WHERE 1 = 0`},
		{`SELECT COUNT(*) FROM mseed.files WHERE NULL <> network`, `SELECT COUNT(*) FROM mseed.files WHERE 1 = 0`},
		{`SELECT COUNT(*) FROM mseed.files WHERE num_records = NULL`, `SELECT COUNT(*) FROM mseed.files WHERE 1 = 0`},
		{`SELECT COUNT(*) FROM mseed.records WHERE start_time >= NULL`, `SELECT COUNT(*) FROM mseed.records WHERE 1 = 0`},
		{`SELECT COUNT(*), SUM(D.sample_value) FROM mseed.dataview WHERE F.station IN ('ISK', NULL)`,
			`SELECT COUNT(*), SUM(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK'`},
		{`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN' AND (D.sample_value = NULL OR D.sample_time < NULL)`,
			`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN' AND 1 = 0`},
	}
	for _, mode := range []Mode{Lazy, Eager} {
		w := openWH(t, dir, mode)
		ref, err := openOracle(dir, Options{Mode: mode, Workers: 1}, noPipeline)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want, err := w.Query(c.same)
			if err != nil {
				t.Fatalf("%v: %v\nquery: %s", mode, err, c.same)
			}
			for _, e := range []*Warehouse{w, ref} {
				got, err := e.Query(c.q)
				if err != nil {
					t.Errorf("%v oracle=%d: %v\nquery: %s", mode, e.oracle, err, c.q)
				} else if renderExact(got.Batch) != renderExact(want.Batch) {
					t.Errorf("%v oracle=%d: %v, want %v\nquery: %s", mode, e.oracle, got.Batch.Row(0), want.Batch.Row(0), c.q)
				}
			}
		}
	}
}

// partitionPredicates cover the paths a predicate can take: metadata
// conjuncts (pushed into the scans, pruned by file and record), D.* value
// comparisons (zone-map pruning before extraction), D.sample_time ranges
// (lifted into a sample window when they stand alone as conjuncts), arithmetic
// over both sides, LIKE, OR across metadata and data, and NULL literals.
var partitionPredicates = []string{
	`F.station = 'ISK'`,
	`R.seqno > 3 AND F.channel <> 'BHZ'`,
	`R.start_time < '2010-01-12T00:00:30'`,
	`D.sample_value > 100`,
	`D.sample_value BETWEEN -50 AND 50`,
	`D.sample_time >= '2010-01-12T00:00:10' AND D.sample_time < '2010-01-12T00:00:40.0125'`,
	`D.sample_time > '2010-01-12T00:00:30'`,
	`D.sample_value * 2 + R.seqno > 10`,
	`D.sample_value / (D.sample_value - 3) > 1`,
	`F.station LIKE 'H%'`,
	`F.station = 'ISK' OR D.sample_value < 0`,
	`F.station IN ('DBN', NULL) OR D.sample_value = NULL`,
}

// TestTernaryPartition is a metamorphic check that needs no reference: for
// every predicate p, the rows of WHERE (p), WHERE NOT (p) and
// WHERE (p) IS NULL partition the unfiltered table, so their COUNT(*) and
// SUM(R.seqno) add up to the unfiltered answer. It runs in every mode, with
// and without a memory budget, and each statement twice: the second pass
// prunes records and skips scan ranges on the zone maps the first one
// collected, so pruning, sample windows and predicate pushdown are all
// checked under NOT.
func TestTernaryPartition(t *testing.T) {
	dir := genRepo(t, 3000)
	const sel = `SELECT COUNT(*), SUM(R.seqno) FROM mseed.dataview`
	for _, mode := range []Mode{Lazy, Eager, External} {
		for _, budget := range []int64{0, 2 << 20} {
			name := fmt.Sprintf("%v/budget=%d", mode, budget)
			w, err := Open(dir, Options{Mode: mode, MemoryBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			all, err := w.QueryUncached(context.Background(), sel)
			if err != nil {
				t.Fatal(err)
			}
			wantCount, wantSum := all.Batch.Row(0)[0].I, all.Batch.Row(0)[1].I
			if wantCount == 0 {
				t.Fatalf("%s: the unfiltered table is empty", name)
			}
			for pass := 1; pass <= 2; pass++ {
				for _, p := range partitionPredicates {
					var count, sum int64
					var parts []int64
					for _, where := range []string{"(%s)", "NOT (%s)", "(%s) IS NULL"} {
						q := sel + " WHERE " + fmt.Sprintf(where, p)
						res, err := w.QueryUncached(context.Background(), q)
						if err != nil {
							t.Fatalf("%s pass %d: %v\nquery: %s", name, pass, err, q)
						}
						row := res.Batch.Row(0)
						count += row[0].I
						sum += row[1].I // a NULL sum (no rows) reads as 0
						parts = append(parts, row[0].I)
					}
					if count != wantCount || sum != wantSum {
						t.Errorf("%s pass %d: p, NOT p, p IS NULL count %v (sum %d) and sum %d, want %d and %d\np: %s",
							name, pass, parts, count, sum, wantCount, wantSum, p)
					}
				}
			}
			if mode == Lazy && w.Stats().Extraction.RecordsSkipped == 0 {
				t.Errorf("%s: the second pass pruned no record; the zone-map path went unchecked", name)
			}
		}
	}
}

package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/sql"
)

// benchBatch builds an n-row batch shaped like the dataview's hot columns.
func benchBatch(n int) *column.Batch {
	rng := rand.New(rand.NewSource(11))
	stations := []string{"ISK", "HGN", "DBN", "WIT", "ROLD"}
	st := make([]string, n)
	vals := make([]float64, n)
	ids := make([]int64, n)
	ts := make([]int64, n)
	for i := 0; i < n; i++ {
		st[i] = stations[rng.Intn(len(stations))]
		vals[i] = rng.NormFloat64() * 1000
		ids[i] = int64(i % 64)
		ts[i] = int64(i) * 25_000_000
	}
	return column.MustNewBatch(
		column.NewStrings("station", st),
		column.NewFloat64s("v", vals),
		column.NewInt64s("file_id", ids),
		column.NewTimestamps("t", ts),
	)
}

func benchPred(b *testing.B, src string) sql.Expr {
	b.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + src)
	if err != nil {
		b.Fatal(err)
	}
	return stmt.Where
}

func BenchmarkFilterNumeric(b *testing.B) {
	batch := benchBatch(100_000)
	pred := benchPred(b, "v > 500")
	b.SetBytes(int64(batch.NumRows()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalPredSel(pred, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterStringEq(b *testing.B) {
	batch := benchBatch(100_000)
	pred := benchPred(b, "station = 'ISK'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalPredSel(pred, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterConjunction(b *testing.B) {
	batch := benchBatch(100_000)
	pred := benchPred(b, "station = 'ISK' AND v > 0 AND t < '1970-01-02'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalPredSel(pred, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinIntKey(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		left := benchBatch(n)
		right := column.MustNewBatch(
			column.NewInt64s("rid", func() []int64 {
				out := make([]int64, 64)
				for i := range out {
					out[i] = int64(i)
				}
				return out
			}()),
			column.NewStrings("tag", make([]string, 64)),
		)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"file_id"}, []string{"rid"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregateGrouped folds the grouped aggregate of a cold Figure-1
// Q2 as the sink sees it, as one morsel: 2,500 records of 512 samples
// (1.28 M rows) from 9 stations, keyed on the station. "flat" carries the
// station once per row and takes the per-row walk; "runs" carries it as
// Column.Repeat hands it over — the same rows as one constant run per
// record — and takes the per-run walk.
func BenchmarkAggregateGrouped(b *testing.B) {
	const records, perRecord = 2500, 512
	rng := rand.New(rand.NewSource(11))
	station := column.NewStrings("station", []string{"ISK", "HGN", "DBN", "WIT", "ROLD", "OPLO", "WTSB", "HRKB", "ZLV"})
	rows := make([]int32, records)
	counts := make([]int, records)
	var sel []int32
	for x := range rows {
		rows[x], counts[x] = int32(x*station.Len()/records), perRecord
		for j := 0; j < perRecord; j++ {
			sel = append(sel, rows[x])
		}
	}
	vals := make([]float64, len(sel))
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1000
	}
	v := column.NewFloat64s("v", vals)
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "station"}}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "AVG(v)"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MIN(v)"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MAX(v)"},
	}
	for _, form := range []struct {
		name string
		key  *column.Column
	}{{"flat", station.Gather(sel)}, {"runs", station.Repeat(rows, counts)}} {
		batch := column.MustNewBatch(form.key, v)
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sinkAggregate(batch, groupBy, aggs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregateSel folds 64k rows in 4k-row morsels into a global
// AggSink under the selections a filter leaves: none ("all"), the middle
// half of each morsel as one contiguous range (a time window's shape), and
// every other row ("sparse"); over Figure 1's Q1 aggregates (AVG, MIN, MAX
// of v and COUNT(*): two slots) and over AVG(v), AVG(w) (two arguments).
func BenchmarkAggregateSel(b *testing.B) {
	const n, morsel = 65_536, 4_096
	batch := benchBatch(n)
	v := batch.ColAt(1).Float64s()
	w := make([]float64, n)
	for i := range w {
		w[i] = v[i*7%n]
	}
	batch = column.MustNewBatch(batch.ColAt(1), column.NewFloat64s("w", w))
	col := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
	for _, sel := range []string{"all", "range", "sparse"} {
		var ms []Morsel
		for lo := 0; lo < n; lo += morsel {
			m := Morsel{B: batch.Range(lo, lo+morsel)}
			switch sel {
			case "range":
				for r := morsel / 4; r < 3*morsel/4; r++ {
					m.Sel = append(m.Sel, int32(r))
				}
			case "sparse":
				for r := 0; r < morsel; r += 2 {
					m.Sel = append(m.Sel, int32(r))
				}
			}
			ms = append(ms, m)
		}
		for _, q := range []struct {
			name string
			aggs []AggSpec
		}{
			{"q1", []AggSpec{
				{Func: "AVG", Arg: col("v"), OutName: "avg"},
				{Func: "MIN", Arg: col("v"), OutName: "min"},
				{Func: "MAX", Arg: col("v"), OutName: "max"},
				{Func: "COUNT", Star: true, OutName: "n"},
			}},
			{"two-args", []AggSpec{
				{Func: "AVG", Arg: col("v"), OutName: "avg_v"},
				{Func: "AVG", Arg: col("w"), OutName: "avg_w"},
			}},
		} {
			b.Run(sel+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := NewAggSink(batch.Range(0, 0), nil, q.aggs, nil)
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range ms {
						if err := s.Consume(m); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := s.Finish(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// sinkAggregate folds batch into an AggSink as one morsel.
func sinkAggregate(batch *column.Batch, groupBy []sql.Expr, aggs []AggSpec) (*column.Batch, error) {
	s, err := NewAggSink(batch.Range(0, 0), groupBy, aggs, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Consume(Morsel{B: batch}); err != nil {
		return nil, err
	}
	return s.Finish()
}

func BenchmarkSortByTimestamp(b *testing.B) {
	batch := benchBatch(50_000)
	keys := []SortKey{{Expr: &sql.ColumnRef{Name: "v"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Sort(context.Background(), batch, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkers is the worker-count axis of the parallel benchmarks;
// workers=1 runs the serial engine and is the no-regression baseline.
var benchWorkers = []int{1, 2, 8}

// BenchmarkFilterConjunctionParallel is BenchmarkFilterConjunction at 1M
// rows as a pipeline: a FilterStage on the pool's workers into a
// CollectSink that gathers the ~10% of rows that pass (workers=1 = the
// serial driver loop).
func BenchmarkFilterConjunctionParallel(b *testing.B) {
	batch := benchBatch(1_000_000)
	preds := []sql.Expr{benchPred(b, "station = 'ISK' AND v > 0 AND t < '1970-01-02'")}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeFilter(p, batch, preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregateGroupedParallel folds 1M rows into an AggSink fed by
// the pool's pipeline driver, string-keyed; the int-keyed variant covers
// the map[int64] fast path. The sink is the pipeline's single consumer, so
// workers only overlap the morsel hand-off, not the fold.
func BenchmarkAggregateGroupedParallel(b *testing.B) {
	batch := benchBatch(1_000_000)
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "AVG(v)"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MIN(v)"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MAX(v)"},
	}
	for _, key := range []string{"station", "file_id"} {
		groupBy := []sql.Expr{&sql.ColumnRef{Name: key}}
		for _, w := range benchWorkers {
			b.Run(fmt.Sprintf("key=%s/workers=%d", key, w), func(b *testing.B) {
				p := NewPool(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipeAggregate(p, nil, batch, groupBy, aggs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHashJoinParallel joins 1M left rows against a 64-row build side
// through HashJoinMem. The 64-row build fits one morsel, so it is the
// serial single table at every worker count, and the probe and both output
// gathers are serial too.
func BenchmarkHashJoinParallel(b *testing.B) {
	left := benchBatch(1_000_000)
	rid := make([]int64, 64)
	for i := range rid {
		rid[i] = int64(i)
	}
	right := column.MustNewBatch(
		column.NewInt64s("rid", rid),
		column.NewStrings("tag", make([]string, 64)),
	)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.HashJoinMem(nil, left, right, []string{"file_id"}, []string{"rid"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// joinBuildBatch is a 1M-row build side with zipf-ish duplicate int keys,
// the shape the flat-table build is optimized for.
func joinBuildBatch(n int) *column.Batch {
	rng := rand.New(rand.NewSource(29))
	keys := make([]int64, n)
	payload := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n / 8)) // ~8 rows per key
		payload[i] = int64(i)
	}
	return column.MustNewBatch(
		column.NewInt64s("rid", keys),
		column.NewInt64s("payload", payload),
	)
}

// BenchmarkJoinBuildParallel measures only the build phase of the flat
// open-addressing join table over 1M rows: the serial single table at
// workers=1, radix-partitioned across the pool otherwise — the one pipeline
// breaker that runs on the pool.
func BenchmarkJoinBuildParallel(b *testing.B) {
	right := joinBuildBatch(1_000_000)
	left := column.MustNewBatch(column.NewInt64s("id", []int64{1}))
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var p *Pool
			if w > 1 {
				p = NewPool(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buildJoinTable(context.Background(), left, right, []string{"id"}, []string{"rid"}, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinBuildMap is the pre-refactor map[[2]int64][]int32 build with
// its per-key slice allocations, kept as the allocs/op baseline the flat
// table is compared against.
func BenchmarkJoinBuildMap(b *testing.B) {
	right := joinBuildBatch(1_000_000)
	keys := right.ColAt(0).Int64s()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht := make(map[[2]int64][]int32, len(keys))
		for row, k := range keys {
			ht[[2]int64{k, 0}] = append(ht[[2]int64{k, 0}], int32(row))
		}
	}
}

// orderByBatch is 1M rows keyed by a shuffled timestamp, the paper's
// ORDER BY sample_time case.
func orderByBatch(n int) *column.Batch {
	rng := rand.New(rand.NewSource(31))
	ts := make([]int64, n)
	v := make([]float64, n)
	for i := range ts {
		ts[i] = rng.Int63n(int64(n)) * 25_000_000
		v[i] = float64(i)
	}
	return column.MustNewBatch(
		column.NewTimestamps("ts", ts),
		column.NewFloat64s("v", v),
	)
}

// BenchmarkOrderByTimestamp sorts 1M rows by a timestamp key: the radix
// path.
func BenchmarkOrderByTimestamp(b *testing.B) {
	batch := orderByBatch(1_000_000)
	keys := []SortKey{{Expr: &sql.ColumnRef{Name: "ts"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Sort(context.Background(), batch, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderByMultiKey sorts 1M rows by a (float, timestamp) key pair:
// the comparator path.
func BenchmarkOrderByMultiKey(b *testing.B) {
	batch := orderByBatch(1_000_000)
	keys := []SortKey{
		{Expr: &sql.ColumnRef{Name: "v"}, Desc: true},
		{Expr: &sql.ColumnRef{Name: "ts"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Sort(context.Background(), batch, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderByTimestampComparator forces the pre-refactor comparator
// path over the same input, the baseline the radix sort is compared to.
func BenchmarkOrderByTimestampComparator(b *testing.B) {
	batch := orderByBatch(1_000_000)
	c, _ := batch.Col("ts")
	k := sortKeyData{typ: c.Type(), ints: c.Int64s()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := selAll(batch.NumRows())
		comparatorSortSel(context.Background(), []sortKeyData{k}, sel)
	}
}

func BenchmarkLikePattern(b *testing.B) {
	batch := benchBatch(100_000)
	pred := benchPred(b, "station LIKE '%S%'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalPredSel(pred, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinSpill measures the grace-hash join at 1M probe x 1M build
// rows: the unbounded in-memory build against a budget small enough that
// most partitions spill their build rows to disk and rebuild during the
// probe. Output is bit-identical in both modes.
func BenchmarkJoinSpill(b *testing.B) {
	left := benchBatch(1_000_000)
	right := joinBuildBatch(1_000_000)
	for _, mode := range []struct {
		name   string
		budget int64
	}{
		{"memory", 0},
		{"spill", 4 << 20},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := NewPool(8)
			qm := NewQueryMem(mem.New(mode.budget), b.TempDir())
			defer qm.Cleanup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, js, err := p.HashJoinMem(qm, left, right, []string{"file_id"}, []string{"rid"})
				if err != nil {
					b.Fatal(err)
				}
				if mode.budget > 0 && js.SpilledPartitions == 0 {
					b.Fatal("spill benchmark did not spill")
				}
			}
		})
	}
}

// BenchmarkAggregateBudget measures a 1M-row, 64k-group GROUP BY through
// the AggSink: unbounded against a budget its group table outgrows, where
// every reservation past the budget is denied and then taken
// unconditionally (the sink accounts, it does not spill).
func BenchmarkAggregateBudget(b *testing.B) {
	n := 1_000_000
	keys := make([]int64, n)
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(41))
	for i := range keys {
		keys[i] = rng.Int63n(1 << 16)
		vals[i] = rng.NormFloat64()
	}
	batch := column.MustNewBatch(
		column.NewInt64s("k", keys),
		column.NewFloat64s("v", vals),
	)
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "k"}}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "v"}, OutName: "sv"},
	}
	for _, mode := range []struct {
		name   string
		budget int64
	}{
		{"memory", 0},
		{"budget", 4 << 20},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := NewPool(8)
			led := mem.New(mode.budget)
			qm := NewQueryMem(led, b.TempDir())
			defer qm.Cleanup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeAggregate(p, qm, batch, groupBy, aggs); err != nil {
					b.Fatal(err)
				}
			}
			if mode.budget > 0 && led.Snapshot().Denials == 0 {
				b.Fatal("budgeted aggregation was never denied a reservation")
			}
		})
	}
}

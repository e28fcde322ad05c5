package exec

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// pipeBatch builds a deterministic n-row batch shaped like the dataview's
// hot columns, with some nulls in the value column.
func pipeBatch(n int) *column.Batch {
	rng := rand.New(rand.NewSource(7))
	stations := []string{"ISK", "HGN", "DBN", "WIT", "ROLD"}
	st := make([]string, n)
	vals := make([]float64, n)
	nulls := make([]bool, n)
	ids := make([]int64, n)
	ts := make([]int64, n)
	for i := 0; i < n; i++ {
		st[i] = stations[rng.Intn(len(stations))]
		vals[i] = rng.NormFloat64() * 1000
		nulls[i] = rng.Intn(97) == 0
		ids[i] = int64(i % 64)
		ts[i] = int64(i) * 25_000_000
	}
	vc := column.NewFloat64s("v", vals)
	if n > 0 {
		vc.SetNulls(nulls)
	}
	return column.MustNewBatch(
		column.NewStrings("station", st),
		vc,
		column.NewInt64s("file_id", ids),
		column.NewTimestamps("t", ts),
	)
}

func pipePred(t testing.TB, src string) []sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + src)
	if err != nil {
		t.Fatal(err)
	}
	return []sql.Expr{stmt.Where}
}

// renderBits renders a batch with full float bit patterns, so equality
// means bit identity (not tolerance).
func renderBits(b *column.Batch) string {
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

var pipeAggs = []AggSpec{
	{Func: "COUNT", Star: true, OutName: "n"},
	{Func: "SUM", Arg: &sql.ColumnRef{Name: "v"}, OutName: "sum_v"},
	{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "avg_v"},
	{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "min_v"},
	{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "max_v"},
	{Func: "COUNT", Arg: &sql.ColumnRef{Name: "station"}, Distinct: true, OutName: "stations"},
}

// TestRunPipelineMatchesMaterializing drives filter -> sink pipelines
// across worker counts and morsel sizes and requires bit-identical output
// to the serial reference (Filter + Aggregate over whole batches), for the
// collect sink, the global aggregation sink, and the grouped aggregation
// sink.
func TestRunPipelineMatchesMaterializing(t *testing.T) {
	b := pipeBatch(50_000)
	preds := pipePred(t, "v > -800 AND file_id < 48")
	filtered, err := Filter(b, preds)
	if err != nil {
		t.Fatal(err)
	}
	wantCollect := renderBits(filtered)
	wantGlobal, err := Aggregate(filtered, nil, pipeAggs)
	if err != nil {
		t.Fatal(err)
	}
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "station"}}
	wantGrouped, err := Aggregate(filtered, groupBy, pipeAggs)
	if err != nil {
		t.Fatal(err)
	}

	proto := b.Range(0, 0)
	for _, workers := range []int{1, 2, 8} {
		for _, morsel := range []int{7, 61, 4096} {
			name := fmt.Sprintf("workers=%d/morsel=%d", workers, morsel)
			p := NewPoolMorsel(workers, morsel)

			run := func(sink PipeSink) *column.Batch {
				t.Helper()
				src := NewBatchMorsels(b, morsel)
				if _, err := p.RunPipeline(src, []PipeStage{NewFilterStage(preds)}, sink); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out, err := sink.Finish()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return out
			}

			if got := renderBits(run(NewCollectSink(proto))); got != wantCollect {
				t.Errorf("%s: collect sink diverged from materializing filter", name)
			}
			sink, err := NewAggSink(proto, nil, pipeAggs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBits(run(sink)); got != renderBits(wantGlobal) {
				t.Errorf("%s: global agg sink diverged:\nwant %sgot  %s", name, renderBits(wantGlobal), got)
			}
			gsink, err := NewAggSink(proto, groupBy, pipeAggs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBits(run(gsink)); got != renderBits(wantGrouped) {
				t.Errorf("%s: grouped agg sink diverged:\nwant %sgot  %s", name, renderBits(wantGrouped), got)
			}
		}
	}
}

// TestGlobalAggBitIdenticalAcrossWorkers requires the streaming chunk tree
// of the sink to produce the float bits of the batch fold at every worker
// count, above and below the chunking threshold.
func TestGlobalAggBitIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range []int{0, 1, globalAggChunkRows, globalAggChunkRows + 1, 100_000} {
		b := pipeBatch(n)
		ref, err := Aggregate(b, nil, pipeAggs)
		if err != nil {
			t.Fatal(err)
		}
		want := renderBits(ref)
		for _, workers := range []int{1, 2, 3, 8} {
			out, err := pipeAggregate(NewPoolMorsel(workers, 4099), nil, b, nil, pipeAggs)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBits(out); got != want {
				t.Errorf("n=%d workers=%d: global aggregate bits diverged:\nwant %s\ngot  %s", n, workers, want, got)
			}
		}
	}
}

// TestRunPipelineErrorMatchesSerial requires the parallel driver to report
// the same first-in-order error the serial loop hits.
func TestRunPipelineErrorMatchesSerial(t *testing.T) {
	b := pipeBatch(5_000)
	preds := pipePred(t, "station > 5") // type error at evaluation time
	proto := b.Range(0, 0)
	var want error
	for _, workers := range []int{1, 2, 8} {
		src := NewBatchMorsels(b, 61)
		_, err := NewPoolMorsel(workers, 61).RunPipeline(src, []PipeStage{NewFilterStage(preds)}, NewCollectSink(proto))
		if err == nil {
			t.Fatalf("workers=%d: no error from bad predicate", workers)
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Errorf("workers=%d: error %q, serial had %q", workers, err, want)
		}
	}
}

// TestProbeStagePartitionedMatchesDirect probes a build table large enough
// to be radix-partitioned morsel by morsel and requires output identical to
// the materializing hash join.
func TestProbeStagePartitionedMatchesDirect(t *testing.T) {
	left := pipeBatch(20_000)
	nR := 64
	rid := make([]int64, nR)
	rname := make([]string, nR)
	for i := range rid {
		rid[i] = int64(i)
		rname[i] = fmt.Sprintf("file-%03d", i)
	}
	right := column.MustNewBatch(
		column.NewInt64s("rid", rid),
		column.NewStrings("rname", rname),
	)
	lk, rk := []string{"file_id"}, []string{"rid"}

	want, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, lk, rk)
	if err != nil {
		t.Fatal(err)
	}
	wantBits := renderBits(want)

	for _, workers := range []int{1, 8} {
		for _, morsel := range []int{13, 4096} {
			p := NewPoolMorsel(workers, morsel)
			jp, err := BuildProbeTable(left.Range(0, 0), right, lk, rk, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := jp.Proto(left.Range(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			sink := NewCollectSink(proto)
			src := NewBatchMorsels(left, morsel)
			if _, err := p.RunPipeline(src, []PipeStage{jp.NewStage()}, sink); err != nil {
				t.Fatal(err)
			}
			out, err := sink.Finish()
			if err != nil {
				t.Fatal(err)
			}
			jp.Close()
			if got := renderBits(out); got != wantBits {
				t.Errorf("workers=%d morsel=%d: pipelined probe diverged from materializing join", workers, morsel)
			}
		}
	}
}

// BenchmarkPipelineFilterAgg compares the serial reference's filter then
// aggregate over whole batches against the fused pipeline on a
// low-selectivity 1M-row query (the predicate keeps ~93% of rows, so the
// reference pays for a large intermediate gather that the pipeline never
// builds).
func BenchmarkPipelineFilterAgg(b *testing.B) {
	batch := pipeBatch(1_000_000)
	stmt, err := sql.Parse("SELECT x FROM t WHERE v > -1500")
	if err != nil {
		b.Fatal(err)
	}
	preds := []sql.Expr{stmt.Where}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "v"}, OutName: "sum_v"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "avg_v"},
	}
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(batch.NumRows()) * 8)
		for i := 0; i < b.N; i++ {
			f, err := Filter(batch, preds)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Aggregate(f, nil, aggs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 8} {
		p := NewPool(workers)
		b.Run(fmt.Sprintf("pipeline/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(batch.NumRows()) * 8)
			proto := batch.Range(0, 0)
			for i := 0; i < b.N; i++ {
				sink, err := NewAggSink(proto, nil, aggs, nil)
				if err != nil {
					b.Fatal(err)
				}
				src := NewBatchMorsels(batch, p.MorselRows())
				if _, err := p.RunPipeline(src, []PipeStage{NewFilterStage(preds)}, sink); err != nil {
					b.Fatal(err)
				}
				if _, err := sink.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

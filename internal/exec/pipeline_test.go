package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
				if _, err := p.RunPipeline(context.Background(), src, []PipeStage{NewFilterStage(preds)}, sink); err != nil {
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

// runBatches builds the same rows twice: record-shaped metadata columns
// (a string, a nullable integer and a nullable float, constant over each of
// the records' sample counts) in constant-run form beside a flat value
// column with nulls, and the same batch with every column flat.
func runBatches(counts []int) (runs, flat *column.Batch) {
	n := len(counts)
	rows := make([]int32, n)
	var sel []int32
	st := column.New("station", column.String)
	seq := column.New("seqno", column.Int64)
	rate := column.New("rate", column.Float64)
	for x := range rows {
		rows[x] = int32(x)
		st.AppendString([]string{"ISK", "HGN", "DBN"}[x%3])
		if x%5 == 4 {
			seq.AppendNull()
			rate.AppendNull()
		} else {
			seq.AppendInt64(int64(x % 4))
			rate.AppendFloat64(20 + float64(x%2)/3)
		}
		for j := 0; j < counts[x]; j++ {
			sel = append(sel, int32(x))
		}
	}
	v := pipeBatch(len(sel)).ColAt(1)
	var rc, fc []*column.Column
	for _, c := range []*column.Column{st, seq, rate} {
		rc, fc = append(rc, c.Repeat(rows, counts)), append(fc, c.Gather(sel))
	}
	return column.MustNewBatch(append(rc, v)...), column.MustNewBatch(append(fc, v)...)
}

// TestAggSinkRunWalkMatchesRowWalk feeds an AggSink the same morsels with
// the key columns in run form and flat, and requires the same bits from the
// per-run walk as from the per-row walk: string, composite and single
// integer keys (nulls get their own group on both key paths), flat and
// run-form aggregate arguments with nulls and DISTINCT, whole morsels and
// selections that cut runs, skip runs and end early.
func TestAggSinkRunWalkMatchesRowWalk(t *testing.T) {
	counts := []int{5, 1, 0, 700, 3, 64, 0, 0, 129, 2, 1, 1, 300, 17}
	runs, flat := runBatches(counts)
	n := flat.NumRows()
	col := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
		{Func: "SUM", Arg: col("v"), OutName: "sum_v"},
		{Func: "MIN", Arg: col("v"), OutName: "min_v"},
		{Func: "COUNT", Arg: col("v"), Distinct: true, OutName: "dist_v"},
		{Func: "AVG", Arg: col("rate"), OutName: "avg_rate"},
		{Func: "SUM", Arg: col("seqno"), OutName: "sum_seq"},
		{Func: "MAX", Arg: col("station"), OutName: "max_st"},
		{Func: "COUNT", Arg: col("seqno"), Distinct: true, OutName: "dist_seq"},
		{Func: "SUM", Arg: &sql.Literal{Val: column.NewFloat64(0.1)}, OutName: "sum_lit"},
	}
	sels := map[string][]int32{"all": nil, "none past the first run": {0, 4}}
	var every3, tail []int32
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			every3 = append(every3, int32(i))
		}
		if i > n-20 {
			tail = append(tail, int32(i))
		}
	}
	sels["every third row"], sels["the last rows"] = every3, tail
	for _, keys := range [][]string{{"station"}, {"seqno"}, {"station", "seqno"}, {"rate", "station"}} {
		groupBy := make([]sql.Expr, len(keys))
		for i, k := range keys {
			groupBy[i] = col(k)
		}
		for name, sel := range sels {
			fold := func(b *column.Batch) (string, int64) {
				s, err := NewAggSink(b.Range(0, 0), groupBy, aggs, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Twice: groups carry over from morsel to morsel.
				for i := 0; i < 2; i++ {
					if err := s.Consume(Morsel{B: b, Sel: sel}); err != nil {
						t.Fatal(err)
					}
				}
				out, err := s.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return renderBits(out), s.RunsIn()
			}
			got, walked := fold(runs)
			want, rowWalked := fold(flat)
			if got != want {
				t.Errorf("keys %v, sel %s: the run walk diverged from the row walk\nwant:\n%s\ngot:\n%s", keys, name, want, got)
			}
			if walked == 0 || rowWalked != 0 {
				t.Errorf("keys %v, sel %s: walked %d runs over run-form keys and %d over flat ones", keys, name, walked, rowWalked)
			}
		}
	}
}

// selStage refines every morsel to the rows whose global index (read back
// from pipeBatch's t column) keep accepts, the way a filter would.
type selStage struct{ keep func(row int) bool }

func (selStage) Label() string        { return "sel" }
func (selStage) Rows() (int64, int64) { return 0, 0 }
func (s selStage) Process(m Morsel) (Morsel, error) {
	ts, _ := m.B.Col("t")
	sel := []int32{}
	for i, v := range ts.Int64s() {
		if s.keep(int(v / 25_000_000)) {
			sel = append(sel, int32(i))
		}
	}
	return Morsel{B: m.B, Sel: sel}, nil
}

// TestGlobalAggBitIdenticalAcrossWorkers requires the sink's zero-key fold
// to produce the bits of the independent row walk in Aggregate at every
// worker count and morsel size: non-integer floats with NULLs, DISTINCT,
// whole morsels and refined ones, input sizes around the default morsel
// (16,384 rows — also the leaf of the reduction tree this fold replaced).
// Over zero live rows it still returns SQL's one row, and a global fold
// counts no key runs.
func TestGlobalAggBitIdenticalAcrossWorkers(t *testing.T) {
	aggs := append([]AggSpec{
		{Func: "COUNT", Arg: &sql.ColumnRef{Name: "v"}, Distinct: true, OutName: "dist_v"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "file_id"}, OutName: "sum_id"},
	}, pipeAggs...)
	sels := []struct {
		name string
		keep func(row int) bool
	}{
		{"all", nil},
		{"every third row", func(row int) bool { return row%3 == 0 }},
		{"empty", func(int) bool { return false }},
	}
	for _, n := range []int{0, 1, 16_383, 16_384, 16_385, 100_000} {
		b := pipeBatch(n)
		for _, sc := range sels {
			live, stages := b, []PipeStage(nil)
			if sc.keep != nil {
				var sel []int32
				for row := 0; row < n; row++ {
					if sc.keep(row) {
						sel = append(sel, int32(row))
					}
				}
				live, stages = b.Gather(sel), []PipeStage{selStage{sc.keep}}
			}
			ref, err := Aggregate(live, nil, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want := renderBits(ref)
			if live.NumRows() == 0 && want != "dist_v,sum_id,n,sum_v,avg_v,min_v,max_v,stations\n0|∅|0|∅|∅|∅|∅|0|\n" {
				t.Fatalf("n=%d sel=%s: reference over zero rows is not one row of COUNT 0 and NULLs:\n%s", n, sc.name, want)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, morsel := range []int{61, 4099, 0} {
					p := NewPoolMorsel(workers, morsel)
					sink, err := NewAggSink(b.Range(0, 0), nil, aggs, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := p.RunPipeline(context.Background(), NewBatchMorsels(b, p.MorselRows()), stages, sink); err != nil {
						t.Fatal(err)
					}
					if sc.name == "empty" && n > 0 { // the driver drops empty morsels; the sink takes them too
						if err := sink.Consume(Morsel{B: b, Sel: []int32{}}); err != nil {
							t.Fatal(err)
						}
					}
					out, err := sink.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if got := renderBits(out); got != want {
						t.Errorf("n=%d sel=%s workers=%d morsel=%d: global aggregate bits diverged:\nwant %s\ngot  %s", n, sc.name, workers, morsel, want, got)
					}
					if sink.RowsIn() != int64(live.NumRows()) || sink.RunsIn() != 0 {
						t.Errorf("n=%d sel=%s workers=%d morsel=%d: folded %d rows in %d runs, want %d rows in 0", n, sc.name, workers, morsel, sink.RowsIn(), sink.RunsIn(), live.NumRows())
					}
				}
			}
		}
	}
}

// nanColumn is n fives with NaN at row at, then a 1 and a 9: the smallest
// and largest values sit right behind the NaN.
func nanColumn(n, at int) *column.Batch {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 5
	}
	vals[at], vals[at+1], vals[at+2] = math.NaN(), 1, 9
	return column.MustNewBatch(column.NewFloat64s("v", vals), column.NewInt64s("k", make([]int64, n)))
}

// TestGlobalMinMaxNaNOnBoundary: a NaN in the middle of the input never
// displaces an established bound, wherever a morsel (or, before this fold
// had one order, a 16,384-row chunk) begins. The reduction tree sealed a
// chunk starting with NaN as min = max = NaN and lost every value in it.
func TestGlobalMinMaxNaNOnBoundary(t *testing.T) {
	aggs := []AggSpec{
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "min_v"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "max_v"},
	}
	for _, at := range []int{16_384, 16_385, 20_000} {
		b := nanColumn(32_768, at)
		grouped, err := Aggregate(b, []sql.Expr{&sql.ColumnRef{Name: "k"}}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want := "min_v,max_v\n0x1p+00|0x1.2p+03|\n"
		if got := renderBits(column.MustNewBatch(grouped.ColAt(1), grouped.ColAt(2))); got != want {
			t.Fatalf("NaN at %d: grouped by a constant key: %s", at, got)
		}
		ref, err := Aggregate(b, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderBits(ref); got != want {
			t.Errorf("NaN at %d: Aggregate: got %s want %s", at, got, want)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, morsel := range []int{61, 4099, 0} {
				out, err := pipeAggregate(NewPoolMorsel(workers, morsel), nil, b, nil, aggs)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderBits(out); got != want {
					t.Errorf("NaN at %d, workers=%d morsel=%d: AggSink: got %s want %s", at, workers, morsel, got, want)
				}
			}
		}
	}
}

// goldenBatch is n rows of integer-valued floats and integers with nulls —
// the shape of every sample the fixtures produce (int32 x gain 1.0) — whose
// partial sums are exact in any order.
func goldenBatch(n int) *column.Batch {
	rng := rand.New(rand.NewSource(18))
	vals, ints, nulls := make([]float64, n), make([]int64, n), make([]bool, n)
	for i := range vals {
		ints[i] = int64(rng.Int31n(1<<21)) - 1<<20
		vals[i] = float64(ints[i])
		nulls[i] = rng.Intn(53) == 0
	}
	v, k := column.NewFloat64s("v", vals), column.NewInt64s("file_id", ints)
	v.SetNulls(nulls)
	k.SetNulls(nulls)
	return column.MustNewBatch(column.NewStrings("station", make([]string, n)), v, k)
}

// TestGlobalFoldMatchesGoldenBits pins the global fold to bits captured at
// the last commit that folded through the 16,384-row reduction tree: any
// input of at most one leaf, and integer-valued input of any size, answers
// exactly as it did there.
func TestGlobalFoldMatchesGoldenBits(t *testing.T) {
	aggs := append([]AggSpec{
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "file_id"}, OutName: "sum_id"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "file_id"}, OutName: "avg_id"},
	}, pipeAggs...)
	for name, tc := range map[string]struct {
		b    *column.Batch
		want string
	}{
		"one leaf of non-integer floats": {pipeBatch(16_384), "sum_id,avg_id,n,sum_v,avg_v,min_v,max_v,stations\n516096|0x1.f8p+04|16384|-0x1.2978430e81b56p+16|-0x1.2c70c075ab8fap+02|-0x1.d966cb4a8333ap+11|0x1.c9e5621fc9f12p+11|5|\n"},
		"100,000 integer-valued rows":    {goldenBatch(100_000), "sum_id,avg_id,n,sum_v,avg_v,min_v,max_v,stations\n-125024386|-0x1.3e86131e1875ep+10|100000|-0x1.dcee208p+26|-0x1.3e86131e1875ep+10|-0x1.fff24p+19|0x1.ffff4p+19|1|\n"},
	} {
		ref, err := Aggregate(tc.b, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderBits(ref); got != tc.want {
			t.Errorf("%s: Aggregate:\nwant %q\ngot  %q", name, tc.want, got)
		}
		out, err := pipeAggregate(NewPoolMorsel(2, 4099), nil, tc.b, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderBits(out); got != tc.want {
			t.Errorf("%s: AggSink:\nwant %q\ngot  %q", name, tc.want, got)
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
		_, err := NewPoolMorsel(workers, 61).RunPipeline(context.Background(), src, []PipeStage{NewFilterStage(preds)}, NewCollectSink(proto))
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

// faultStage fails on the morsel holding global row at (read back from
// pipeBatch's t column): it panics with boom, or returns an error when boom
// is nil.
type faultStage struct {
	at   int
	boom any
}

func (faultStage) Label() string        { return "fault" }
func (faultStage) Rows() (int64, int64) { return 0, 0 }
func (s faultStage) Process(m Morsel) (Morsel, error) {
	if holdsRow(m, s.at) {
		if s.boom == nil {
			return Morsel{}, fmt.Errorf("stage error at row %d", s.at)
		}
		panic(s.boom)
	}
	return m, nil
}

func holdsRow(m Morsel, row int) bool {
	ts, _ := m.B.Col("t")
	v := ts.Int64s()
	return len(v) > 0 && int(v[0]/25_000_000) <= row && row <= int(v[len(v)-1]/25_000_000)
}

// faultSource panics on its n-th call to Next.
type faultSource struct {
	BatchSource
	n, calls int
}

func (s *faultSource) Next() (Morsel, bool, error) {
	if s.calls++; s.calls == s.n {
		panic("source boom")
	}
	return s.BatchSource.Next()
}

// slowSource sleeps in every Next from its n-th call on and records a Close
// that arrives while a Next is still running.
type slowSource struct {
	BatchSource
	n, calls            int
	inNext, closedEarly atomic.Bool
}

func (s *slowSource) Next() (Morsel, bool, error) {
	s.inNext.Store(true)
	defer s.inNext.Store(false)
	if s.calls++; s.calls >= s.n {
		time.Sleep(2 * time.Millisecond)
	}
	return s.BatchSource.Next()
}

func (s *slowSource) Close() {
	if s.inNext.Load() {
		s.closedEarly.Store(true)
	}
	s.BatchSource.Close()
}

// faultSink panics when it is handed the morsel holding global row at.
type faultSink struct {
	PipeSink
	at int
}

func (s faultSink) Consume(m Morsel) error {
	if holdsRow(m, s.at) {
		var nilMap map[int]int
		nilMap[s.at] = 1 // a runtime error, not a plain value
	}
	return s.PipeSink.Consume(m)
}

// TestRunPipelinePanicContainment: a panic in the source, a stage or the
// sink — on the caller's goroutine, the feeder or a worker — comes back as
// that morsel's *PanicError carrying the value and the stack; the first
// failure in sequence order wins over a later one of either kind; no
// goroutine outlives the run; and the same pool's next run answers bit for
// bit as before.
func TestRunPipelinePanicContainment(t *testing.T) {
	const morsel = 61
	b := pipeBatch(5_000)
	proto := b.Range(0, 0)
	run := func(p *Pool, src BatchSource, stages []PipeStage, sink PipeSink) (string, error) {
		if _, err := p.RunPipeline(context.Background(), src, stages, sink); err != nil {
			return "", err
		}
		out, err := sink.Finish()
		if err != nil {
			return "", err
		}
		return renderBits(out), nil
	}
	want, err := run(NewPoolMorsel(1, morsel), NewBatchMorsels(b, morsel), nil, NewCollectSink(proto))
	if err != nil {
		t.Fatal(err)
	}
	type fault struct {
		name   string
		src    func() BatchSource
		stages []PipeStage
		sink   func() PipeSink
		check  func(error) string // "" when err is the expected one
	}
	clean := func() BatchSource { return NewBatchMorsels(b, morsel) }
	collect := func() PipeSink { return NewCollectSink(proto) }
	panicked := func(value string) func(error) string {
		return func(err error) string {
			var pe *PanicError
			if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != value || !strings.Contains(string(pe.Stack), "goroutine") {
				return fmt.Sprintf("want a PanicError of %q with a stack, got %v", value, err)
			}
			return ""
		}
	}
	var faults []fault
	for _, n := range []int{1, 2, 40} { // caller, look-ahead, feeder
		faults = append(faults, fault{
			name: fmt.Sprintf("source panics on Next #%d", n),
			src:  func() BatchSource { return &faultSource{BatchSource: clean(), n: n} },
			sink: collect, check: panicked("source boom"),
		})
	}
	for _, row := range []int{0, 1_000} { // first morsel on the caller, later ones on workers
		faults = append(faults, fault{
			name: fmt.Sprintf("stage panics at row %d", row), src: clean,
			stages: []PipeStage{faultStage{at: row, boom: "stage boom"}},
			sink:   collect, check: panicked("stage boom"),
		}, fault{
			name: fmt.Sprintf("sink panics at row %d", row), src: clean,
			sink: func() PipeSink { return faultSink{PipeSink: collect(), at: row} },
			check: func(err error) string {
				var re runtime.Error
				if !errors.As(err, &re) || !strings.Contains(err.Error(), "nil map") {
					return fmt.Sprintf("want the sink's runtime error unwrapped, got %v", err)
				}
				return ""
			},
		})
	}
	// A source still inside Next on the feeder when a stage panics must not
	// be closed under it. Whether the workers leave before the feeder does
	// depends on scheduling, so this catches an unawaited feeder only
	// sometimes.
	var slow *slowSource
	faults = append(faults, fault{
		name:   "source still in Next when a stage panics",
		src:    func() BatchSource { slow = &slowSource{BatchSource: clean(), n: 2}; return slow },
		stages: []PipeStage{faultStage{at: 1_000, boom: "stage boom"}},
		sink:   collect,
		check: func(err error) string {
			if msg := panicked("stage boom")(err); msg != "" {
				return msg
			}
			if slow.closedEarly.Load() {
				return "the source was closed while the feeder was still in Next"
			}
			return ""
		},
	})
	faults = append(faults, fault{
		name: "panic before an error", src: clean, sink: collect,
		stages: []PipeStage{faultStage{at: 1_000, boom: "first"}, faultStage{at: 3_000}},
		check:  panicked("first"),
	}, fault{
		name: "error before a panic", src: clean, sink: collect,
		stages: []PipeStage{faultStage{at: 3_000, boom: "later"}, faultStage{at: 1_000}},
		check: func(err error) string {
			if err == nil || err.Error() != "stage error at row 1000" {
				return fmt.Sprintf("want the earlier stage error, got %v", err)
			}
			return ""
		},
	})

	for _, workers := range []int{1, 2, 8} {
		p := NewPoolMorsel(workers, morsel)
		for _, f := range faults {
			base := runtime.NumGoroutine()
			_, err := run(p, f.src(), f.stages, f.sink())
			if msg := f.check(err); msg != "" {
				t.Errorf("workers=%d, %s: %s", workers, f.name, msg)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("workers=%d, %s: %d goroutines outlive the run (%d before)", workers, f.name, runtime.NumGoroutine(), base)
				}
			}
			got, err := run(p, clean(), nil, collect())
			if err != nil || got != want {
				t.Errorf("workers=%d, after %s: next run diverged (err %v)", workers, f.name, err)
			}
		}
	}
}

// endlessSource hands out one morsel forever, calling cancel after the
// first.
type endlessSource struct {
	m      Morsel
	cancel func()
	calls  int
}

func (s *endlessSource) Next() (Morsel, bool, error) {
	if s.calls++; s.calls == 2 {
		s.cancel()
	}
	return s.m, true, nil
}

func (s *endlessSource) Close() {}

// TestRunPipelineStopsWhenCtxEnds: a source that never ends is stopped by
// its context alone — RunPipeline's per-morsel check is its only way out —
// and the run returns ctx.Err() with no goroutine left behind, serial and
// parallel alike.
func TestRunPipelineStopsWhenCtxEnds(t *testing.T) {
	const morsel = 61
	b := pipeBatch(5_000)
	proto := b.Range(0, 0)
	for _, workers := range []int{1, 2, 8} {
		p := NewPoolMorsel(workers, morsel)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		src := &endlessSource{m: Morsel{B: b.Range(0, morsel)}, cancel: cancel}
		if _, err := p.RunPipeline(ctx, src, nil, NewCollectSink(proto)); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: %v, want %v", workers, err, context.Canceled)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines outlive the run (%d before)", workers, runtime.NumGoroutine(), base)
			}
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
			jp, err := BuildProbeTable(context.Background(), left.Range(0, 0), right, lk, rk, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := jp.Proto(left.Range(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			sink := NewCollectSink(proto)
			src := NewBatchMorsels(left, morsel)
			if _, err := p.RunPipeline(context.Background(), src, []PipeStage{jp.NewStage()}, sink); err != nil {
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

// TestProbeMorselAllocs gates what ProbeStage.Process allocates to probe one
// default-size morsel against a radix-partitioned ~100k-row build: the match
// lists, the gathered output columns and a handful of per-call objects — a
// count that must not grow with the build's partition count. Machine-
// independent: it counts allocations, not time.
func TestProbeMorselAllocs(t *testing.T) {
	right := joinBuildBatch(100_000)
	rng := rand.New(rand.NewSource(17))
	lid := make([]int64, DefaultMorselRows)
	v := make([]float64, DefaultMorselRows)
	for i := range lid {
		lid[i] = rng.Int63n(100_000 / 8)
		v[i] = rng.NormFloat64()
	}
	m := Morsel{B: column.MustNewBatch(column.NewInt64s("lid", lid), column.NewFloat64s("v", v))}
	var allocs []float64
	for _, parts := range []int{8, 64} {
		jp, err := BuildProbeTable(context.Background(), m.B.Range(0, 0), right, []string{"lid"}, []string{"rid"}, NewPool(parts/4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := jp.Stats().Partitions; got != parts {
			t.Fatalf("build has %d partitions, want %d", got, parts)
		}
		st := jp.NewStage()
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := st.Process(m); err != nil {
				t.Fatal(err)
			}
		}))
		jp.Close()
	}
	if allocs[0] != allocs[1] || allocs[0] >= 64 {
		t.Errorf("probing one %d-row morsel allocated %.0f times at 8 partitions and %.0f at 64, want the same count below 64",
			DefaultMorselRows, allocs[0], allocs[1])
	} else {
		t.Logf("%.0f allocations per %d-row morsel at 8 and 64 partitions", allocs[0], DefaultMorselRows)
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
				if _, err := p.RunPipeline(context.Background(), src, []PipeStage{NewFilterStage(preds)}, sink); err != nil {
					b.Fatal(err)
				}
				if _, err := sink.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

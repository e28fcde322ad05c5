package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// TestAggSinkSlots: the sink folds one state per COUNT(*) and per distinct
// plain column (with its Distinct) and still outputs one column per spec,
// in spec order, with the bits of the one-state-per-spec reference. Figure
// 1's Q1 shape (AVG/MIN/MAX of v and COUNT(*)) folds 2 slots, Q2's MIN/MAX
// folds 1; a literal argument never shares — SUM(1) and SUM(1.0) print
// alike, and MIN(-0.0) and MIN(0.0) hold values that compare equal.
func TestAggSinkSlots(t *testing.T) {
	col := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
	spec := func(fn string, arg sql.Expr) AggSpec {
		if arg == nil {
			return AggSpec{Func: fn, Star: true, OutName: fn + "(*)"}
		}
		return AggSpec{Func: fn, Arg: arg, OutName: fn + "(" + arg.String() + ")"}
	}
	distinct := func(a AggSpec) AggSpec {
		a.Distinct, a.OutName = true, "DISTINCT "+a.OutName
		return a
	}
	one, oneF := &sql.Literal{Val: column.NewInt64(1)}, &sql.Literal{Val: column.NewFloat64(1)}
	negz, zero := &sql.Literal{Val: column.NewFloat64(math.Copysign(0, -1))}, &sql.Literal{Val: column.NewFloat64(0)}
	b := pipeBatch(5_000) // v has NULLs: the slot's row walk
	b = column.MustNewBatch(b.ColAt(0), b.ColAt(1), b.ColAt(2), benchBatch(5_000).ColAt(1).WithName("w"))
	var evens []int32
	for r := 0; r < b.NumRows(); r += 2 {
		evens = append(evens, int32(r))
	}
	for _, tc := range []struct {
		name  string
		aggs  []AggSpec
		slots int
	}{
		{"Q1", []AggSpec{spec("AVG", col("v")), spec("MIN", col("v")), spec("MAX", col("v")), spec("COUNT", nil)}, 2},
		{"Q2", []AggSpec{spec("MIN", col("w")), spec("MAX", col("w"))}, 1},
		{"two args", []AggSpec{spec("AVG", col("v")), spec("AVG", col("w"))}, 2},
		{"out of order", []AggSpec{spec("MAX", col("w")), spec("COUNT", nil), spec("SUM", col("file_id")), spec("MIN", col("w")),
			spec("COUNT", nil), spec("AVG", col("file_id")), spec("COUNT", col("w")), spec("SUM", col("w"))}, 3},
		{"literals", []AggSpec{spec("SUM", one), spec("SUM", oneF), spec("AVG", one)}, 3},
		{"signed zero", []AggSpec{spec("MIN", negz), spec("MIN", zero)}, 2},
		{"distinct", []AggSpec{distinct(spec("COUNT", col("w"))), spec("SUM", col("w")), distinct(spec("SUM", col("w")))}, 2},
	} {
		var names []string
		for i := range tc.aggs { // COUNT(*) twice needs two names
			tc.aggs[i].OutName = fmt.Sprintf("%d %s", i, tc.aggs[i].OutName)
			names = append(names, tc.aggs[i].OutName)
		}
		for _, groupBy := range [][]sql.Expr{nil, {col("station")}} {
			for _, sel := range [][]int32{nil, evens} {
				s, err := NewAggSink(b.Range(0, 0), groupBy, tc.aggs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < b.NumRows(); lo += 1_000 { // the selection's part of each morsel
					m := Morsel{B: b.Range(lo, lo+1_000)}
					for _, r := range sel {
						if int(r) >= lo && int(r) < lo+1_000 {
							m.Sel = append(m.Sel, r-int32(lo))
						}
					}
					if err := s.Consume(m); err != nil {
						t.Fatal(err)
					}
				}
				if got := len(s.groups[0].states); got != tc.slots || len(s.slots) != tc.slots {
					t.Errorf("%s, groupBy %v: %d states per group over %d slots, want %d", tc.name, groupBy, got, len(s.slots), tc.slots)
				}
				out, err := s.Finish()
				if err != nil {
					t.Fatal(err)
				}
				live := b
				if sel != nil {
					live = b.Gather(sel)
				}
				ref, err := Aggregate(live, groupBy, tc.aggs)
				if err != nil {
					t.Fatal(err)
				}
				if got := out.Names()[len(groupBy):]; !slices.Equal(got, names) {
					t.Errorf("%s, groupBy %v: columns %v, want %v", tc.name, groupBy, got, names)
				}
				if got, want := renderBits(out), renderBits(ref); got != want {
					t.Errorf("%s, groupBy %v, sel %v: slots diverged from the reference\nwant:\n%s\ngot:\n%s", tc.name, groupBy, sel != nil, want, got)
				}
			}
		}
	}
}

// TestAggSinkConsumeAllocs: one global-sink Consume over a morsel under a
// sparse selection allocates a constant handful — the morsel's argument
// vectors — however many rows it holds; the typed selection fold allocates
// nothing per row.
func TestAggSinkConsumeAllocs(t *testing.T) {
	col := &sql.ColumnRef{Name: "v"}
	aggs := []AggSpec{
		{Func: "AVG", Arg: col, OutName: "avg"},
		{Func: "MIN", Arg: col, OutName: "min"},
		{Func: "MAX", Arg: col, OutName: "max"},
		{Func: "COUNT", Star: true, OutName: "n"},
	}
	var allocs []float64
	for _, n := range []int{1_024, 16_384} {
		b := benchBatch(n)
		var sel []int32
		for r := 0; r < n; r += 2 {
			sel = append(sel, int32(r))
		}
		s, err := NewAggSink(b.Range(0, 0), nil, aggs, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if err := s.Consume(Morsel{B: b, Sel: sel}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocations per Consume at 1,024 and 16,384 rows: %v", allocs)
	if allocs[1] > allocs[0] || allocs[1] > 4 {
		t.Errorf("Consume allocates %v times at 1,024 rows and %v at 16,384; want a constant of at most 4", allocs[0], allocs[1])
	}
}

// TestMinMaxFirstValueOrder pins the MIN/MAX spec in doc.go on every fold
// path: the first live value of a group seeds its state and a later value
// replaces it only by comparing below or above it, so [NaN, 1, 9] answers
// NaN for both, a NaN after the first value is never seen — also when a
// morsel (and a key run) starts with it — and of -0 and +0 whichever came
// first stays. The paths: the reference's row walk, fold's row walk (a
// null vector), its range loop and its selection loop over a contiguous
// and a sparse selection, over the zero-key, row-keyed and run-keyed walks.
func TestMinMaxFirstValueOrder(t *testing.T) {
	nan, negz := math.NaN(), math.Copysign(0, -1)
	aggs := []AggSpec{
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "min"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "max"},
	}
	for _, tc := range []struct {
		vals     []float64
		min, max float64
	}{
		{[]float64{nan, 1, 9}, nan, nan},
		{[]float64{5, nan, 1, 9}, 1, 9},
		{[]float64{negz, 0, 0}, negz, negz},
		{[]float64{0, negz, negz}, 0, 0},
	} {
		check := func(path string) func(*column.Batch, error) {
			return func(out *column.Batch, err error) {
				if err != nil {
					t.Fatal(err)
				}
				mn, mx := out.ColAt(out.NumCols() - 2).Float64s()[0], out.ColAt(out.NumCols() - 1).Float64s()[0]
				if math.Float64bits(mn) != math.Float64bits(tc.min) || math.Float64bits(mx) != math.Float64bits(tc.max) {
					t.Errorf("%v, %s: MIN %v MAX %v, want %v %v", tc.vals, path, mn, mx, tc.min, tc.max)
				}
			}
		}
		// stride 2 puts a -100 no selection keeps after each value.
		for _, stride := range []int{1, 2} {
			n := stride * len(tc.vals)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = -100
			}
			for i, v := range tc.vals {
				vals[stride*i] = v
			}
			for _, nullable := range []bool{false, true} {
				v := column.NewFloat64s("v", vals)
				if nullable {
					v.SetNulls(make([]bool, n))
				}
				path := fmt.Sprintf("stride %d, nullable %v", stride, nullable)
				var values []int32 // the rows holding tc.vals
				for row := 0; row < n; row += stride {
					values = append(values, int32(row))
				}
				live := column.MustNewBatch(v, column.NewInt64s("k", make([]int64, n))).Gather(values)
				check(path + ", reference")(Aggregate(live, nil, aggs))
				check(path + ", reference grouped")(Aggregate(live, []sql.Expr{&sql.ColumnRef{Name: "k"}}, aggs))
				key := column.NewInt64s("k", []int64{7})
				for _, kc := range []*column.Column{nil, column.NewInt64s("k", make([]int64, n)), key.Repeat([]int32{0, 0}, []int{stride, n - stride})} {
					b, groupBy := column.MustNewBatch(v), []sql.Expr(nil)
					if kc != nil {
						b, groupBy = column.MustNewBatch(v, kc), []sql.Expr{&sql.ColumnRef{Name: "k"}}
					}
					for _, cut := range []int{n, stride} { // whole, or a morsel from the second value on
						for _, withSel := range []bool{stride == 2, true} {
							s, err := NewAggSink(b.Range(0, 0), groupBy, aggs, nil)
							if err != nil {
								t.Fatal(err)
							}
							for _, r := range [][2]int{{0, cut}, {cut, n}} {
								m := Morsel{B: b.Range(r[0], r[1])}
								for row := 0; withSel && row < r[1]-r[0]; row += stride {
									m.Sel = append(m.Sel, int32(row))
								}
								if m.Rows() > 0 {
									if err := s.Consume(m); err != nil {
										t.Fatal(err)
									}
								}
							}
							check(fmt.Sprintf("%s, %d key runs, cut %d, sel %v", path, s.RunsIn(), cut, withSel))(s.Finish())
						}
					}
				}
			}
		}
	}
}

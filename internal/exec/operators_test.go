package exec

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/column"
	"repro/internal/sql"
)

func TestHashJoinSingleIntKey(t *testing.T) {
	left := column.MustNewBatch(
		column.NewInt64s("l.id", []int64{1, 2, 3, 2}),
		column.NewStrings("l.name", []string{"a", "b", "c", "b2"}),
	)
	right := column.MustNewBatch(
		column.NewInt64s("r.id", []int64{2, 3, 4}),
		column.NewFloat64s("r.val", []float64{20, 30, 40}),
	)
	out, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"l.id"}, []string{"r.id"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 { // ids 2, 3, 2
		t.Fatalf("rows = %d\n%v", out.NumRows(), out)
	}
	// Probe order follows the left input.
	names, _ := out.Col("l.name")
	vals, _ := out.Col("r.val")
	wantNames := []string{"b", "c", "b2"}
	wantVals := []float64{20, 30, 20}
	for i := range wantNames {
		if names.Strings()[i] != wantNames[i] || vals.Float64s()[i] != wantVals[i] {
			t.Errorf("row %d = %s/%g, want %s/%g", i,
				names.Strings()[i], vals.Float64s()[i], wantNames[i], wantVals[i])
		}
	}
	// Right key column is dropped from the output.
	if _, ok := out.Col("r.id"); ok {
		t.Error("right key column should be dropped")
	}
	if _, ok := out.Col("l.id"); !ok {
		t.Error("left key column should remain")
	}
}

func TestHashJoinCompositeKey(t *testing.T) {
	left := column.MustNewBatch(
		column.NewInt64s("f", []int64{1, 1, 2}),
		column.NewInt64s("s", []int64{1, 2, 1}),
	)
	right := column.MustNewBatch(
		column.NewInt64s("rf", []int64{1, 1, 2, 2}),
		column.NewInt64s("rs", []int64{1, 2, 1, 2}),
		column.NewStrings("tag", []string{"11", "12", "21", "22"}),
	)
	out, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"f", "s"}, []string{"rf", "rs"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	tags, _ := out.Col("tag")
	for i, want := range []string{"11", "12", "21"} {
		if tags.Strings()[i] != want {
			t.Errorf("row %d tag = %s, want %s", i, tags.Strings()[i], want)
		}
	}
}

func TestHashJoinStringKey(t *testing.T) {
	left := column.MustNewBatch(column.NewStrings("st", []string{"ISK", "HGN"}))
	right := column.MustNewBatch(
		column.NewStrings("st2", []string{"HGN", "ISK"}),
		column.NewInt64s("x", []int64{10, 20}),
	)
	out, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"st"}, []string{"st2"})
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := out.Col("x")
	if out.NumRows() != 2 || xs.Int64s()[0] != 20 || xs.Int64s()[1] != 10 {
		t.Errorf("string join wrong: %v", out)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	lk := column.New("k", column.Int64)
	lk.AppendInt64(1)
	lk.AppendNull()
	left := column.MustNewBatch(lk)
	rk := column.New("rk", column.Int64)
	rk.AppendNull()
	rk.AppendInt64(1)
	right := column.MustNewBatch(rk)
	out, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"k"}, []string{"rk"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Errorf("rows = %d, want 1 (nulls must not join)", out.NumRows())
	}
}

func TestHashJoinErrors(t *testing.T) {
	b := column.MustNewBatch(column.NewInt64s("a", []int64{1}))
	if _, _, err := (*Pool)(nil).HashJoinMem(nil, b, b, nil, nil); err == nil {
		t.Error("empty key lists should error")
	}
	if _, _, err := (*Pool)(nil).HashJoinMem(nil, b, b, []string{"a"}, []string{"a", "b"}); err == nil {
		t.Error("mismatched key lists should error")
	}
	if _, _, err := (*Pool)(nil).HashJoinMem(nil, b, b, []string{"nope"}, []string{"a"}); err == nil {
		t.Error("unknown key should error")
	}
}

func TestHashJoinMatchesNestedLoopQuick(t *testing.T) {
	// Property: hash join output equals a nested-loop join, up to order.
	f := func(lraw, rraw []uint8) bool {
		if len(lraw) > 40 {
			lraw = lraw[:40]
		}
		if len(rraw) > 40 {
			rraw = rraw[:40]
		}
		lk := make([]int64, len(lraw))
		for i, v := range lraw {
			lk[i] = int64(v % 8)
		}
		rk := make([]int64, len(rraw))
		for i, v := range rraw {
			rk[i] = int64(v % 8)
		}
		left := column.MustNewBatch(column.NewInt64s("l", lk))
		right := column.MustNewBatch(column.NewInt64s("r", rk))
		out, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"l"}, []string{"r"})
		if err != nil {
			return false
		}
		want := 0
		for _, a := range lk {
			for _, b := range rk {
				if a == b {
					want++
				}
			}
		}
		return out.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func aggBatch() *column.Batch {
	return column.MustNewBatch(
		column.NewStrings("station", []string{"ISK", "HGN", "ISK", "HGN", "ISK"}),
		column.NewFloat64s("v", []float64{1, 2, 3, 4, 5}),
		column.NewInt64s("n", []int64{10, 20, 30, 40, 50}),
	)
}

func TestAggregateGlobal(t *testing.T) {
	b := aggBatch()
	out, err := Aggregate(b, nil, []AggSpec{
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "AVG(v)"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MIN(v)"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MAX(v)"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "n"}, OutName: "SUM(n)"},
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	row := out.Row(0)
	if row[0].F != 3 || row[1].F != 1 || row[2].F != 5 || row[3].I != 150 || row[4].I != 5 {
		t.Errorf("row = %v", row)
	}
	// SUM over ints stays integral.
	if row[3].Type != column.Int64 {
		t.Errorf("SUM(int) type = %v", row[3].Type)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	b := aggBatch()
	out, err := Aggregate(b, []sql.Expr{&sql.ColumnRef{Name: "station"}}, []AggSpec{
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MIN(v)"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MAX(v)"},
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// Groups appear in first-appearance order: ISK then HGN.
	r0, r1 := out.Row(0), out.Row(1)
	if r0[0].S != "ISK" || r0[1].F != 1 || r0[2].F != 5 || r0[3].I != 3 {
		t.Errorf("ISK row = %v", r0)
	}
	if r1[0].S != "HGN" || r1[1].F != 2 || r1[2].F != 4 || r1[3].I != 2 {
		t.Errorf("HGN row = %v", r1)
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	b := aggBatch()
	out, err := Aggregate(b, nil, []AggSpec{
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "station"}, OutName: "MIN(station)"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "station"}, OutName: "MAX(station)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := out.Row(0)
	if row[0].S != "HGN" || row[1].S != "ISK" {
		t.Errorf("string min/max = %v", row)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	empty := column.MustNewBatch(
		column.NewStrings("station", nil),
		column.NewFloat64s("v", nil),
	)
	// Global aggregate over zero rows: COUNT 0, AVG/MIN NULL.
	out, err := Aggregate(empty, nil, []AggSpec{
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "AVG(v)"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "MIN(v)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := out.Row(0)
	if row[0].I != 0 || !row[1].Null || !row[2].Null {
		t.Errorf("empty aggregate = %v", row)
	}
	// Grouped aggregate over zero rows: zero groups.
	out, err = Aggregate(empty, []sql.Expr{&sql.ColumnRef{Name: "station"}}, []AggSpec{
		{Func: "COUNT", Star: true, OutName: "COUNT(*)"},
	})
	if err != nil || out.NumRows() != 0 {
		t.Errorf("grouped empty: %d rows, %v", out.NumRows(), err)
	}
}

func TestAggregateNullsIgnored(t *testing.T) {
	v := column.New("v", column.Float64)
	v.AppendFloat64(2)
	v.AppendNull()
	v.AppendFloat64(4)
	b := column.MustNewBatch(v)
	out, err := Aggregate(b, nil, []AggSpec{
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "a"},
		{Func: "COUNT", Arg: &sql.ColumnRef{Name: "v"}, OutName: "c"},
		{Func: "COUNT", Star: true, OutName: "cs"},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := out.Row(0)
	if row[0].F != 3 { // (2+4)/2, null skipped
		t.Errorf("AVG = %v", row[0])
	}
	if row[1].I != 2 || row[2].I != 3 {
		t.Errorf("COUNT(v)=%v COUNT(*)=%v", row[1], row[2])
	}
}

func TestAggregateCountDistinct(t *testing.T) {
	b := aggBatch()
	out, err := Aggregate(b, nil, []AggSpec{
		{Func: "COUNT", Arg: &sql.ColumnRef{Name: "station"}, Distinct: true, OutName: "cd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[0].I != 2 {
		t.Errorf("COUNT(DISTINCT station) = %v", out.Row(0)[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	b := aggBatch()
	if _, err := Aggregate(b, nil, []AggSpec{{Func: "AVG", Arg: &sql.ColumnRef{Name: "station"}, OutName: "x"}}); err == nil {
		t.Error("AVG over string should error")
	}
	if _, err := Aggregate(b, nil, []AggSpec{{Func: "SUM", Arg: &sql.ColumnRef{Name: "station"}, OutName: "x"}}); err == nil {
		t.Error("SUM over string should error")
	}
	if _, err := Aggregate(b, nil, []AggSpec{{Func: "MEDIAN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "x"}}); err == nil {
		t.Error("unknown aggregate should error")
	}
}

func TestAggregateAvgMatchesManualQuick(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		fv := make([]float64, len(vals))
		var sum float64
		for i, v := range vals {
			fv[i] = float64(v)
			sum += float64(v)
		}
		b := column.MustNewBatch(column.NewFloat64s("v", fv))
		out, err := Aggregate(b, nil, []AggSpec{{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "a"}})
		if err != nil {
			return false
		}
		want := sum / float64(len(vals))
		return math.Abs(out.Row(0)[0].F-want) < 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortSingleAndMultiKey(t *testing.T) {
	b := column.MustNewBatch(
		column.NewStrings("s", []string{"b", "a", "b", "a"}),
		column.NewInt64s("n", []int64{1, 2, 3, 4}),
	)
	out, _, err := Sort(context.Background(), b, []SortKey{{Expr: &sql.ColumnRef{Name: "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := out.Col("s")
	if sc.Strings()[0] != "a" || sc.Strings()[3] != "b" {
		t.Errorf("sorted: %v", sc.Strings())
	}
	// Stability: equal keys preserve input order (2 before 4, 1 before 3).
	nc, _ := out.Col("n")
	if nc.Int64s()[0] != 2 || nc.Int64s()[1] != 4 || nc.Int64s()[2] != 1 || nc.Int64s()[3] != 3 {
		t.Errorf("stable order: %v", nc.Int64s())
	}
	// Multi-key with DESC.
	out, _, err = Sort(context.Background(), b, []SortKey{
		{Expr: &sql.ColumnRef{Name: "s"}},
		{Expr: &sql.ColumnRef{Name: "n"}, Desc: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, _ = out.Col("n")
	if nc.Int64s()[0] != 4 || nc.Int64s()[1] != 2 || nc.Int64s()[2] != 3 || nc.Int64s()[3] != 1 {
		t.Errorf("multi-key: %v", nc.Int64s())
	}
}

func TestSortTypeMismatchError(t *testing.T) {
	s := column.New("k", column.String)
	s.AppendString("x")
	s.AppendString("y")
	b := column.MustNewBatch(s)
	// Build an expression mixing string and int per row is impossible via a
	// single column, so check the no-key and tiny-batch fast paths instead.
	out, _, err := Sort(context.Background(), b, nil)
	if err != nil || out != b {
		t.Error("no-key sort should be identity")
	}
	one := column.MustNewBatch(column.NewInt64s("n", []int64{1}))
	out, _, err = Sort(context.Background(), one, []SortKey{{Expr: &sql.ColumnRef{Name: "n"}}})
	if err != nil || out != one {
		t.Error("single-row sort should be identity")
	}
}

func TestLimit(t *testing.T) {
	b := column.MustNewBatch(column.NewInt64s("n", []int64{1, 2, 3, 4, 5}))
	if out := Limit(b, 3); out.NumRows() != 3 {
		t.Errorf("limit 3: %d rows", out.NumRows())
	}
	if out := Limit(b, 0); out.NumRows() != 0 {
		t.Errorf("limit 0: %d rows", out.NumRows())
	}
	if out := Limit(b, 10); out != b {
		t.Error("limit beyond size should be identity")
	}
	if out := Limit(b, -1); out != b {
		t.Error("negative limit should be identity")
	}
}

func TestProject(t *testing.T) {
	b := testBatch()
	out, err := Project(b,
		[]sql.Expr{&sql.ColumnRef{Name: "n"}, mustValueExpr(t, "v * 2")},
		[]string{"n", "doubled"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 2 {
		t.Fatalf("cols = %d", out.NumCols())
	}
	d, ok := out.Col("doubled")
	if !ok || d.Float64s()[2] != 5.0 {
		t.Errorf("projection: %v", out)
	}
	if _, err := Project(b, []sql.Expr{&sql.ColumnRef{Name: "n"}}, []string{"a", "b"}); err == nil {
		t.Error("mismatched names should error")
	}
}

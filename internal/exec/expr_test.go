package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// mustExpr parses a standalone expression by wrapping it in a SELECT.
func mustExpr(t *testing.T, s string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return stmt.Where
}

// mustValueExpr parses a select-list expression.
func mustValueExpr(t *testing.T, s string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT " + s + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return stmt.Items[0].Expr
}

func testBatch() *column.Batch {
	return column.MustNewBatch(
		column.NewStrings("station", []string{"ISK", "HGN", "DBN", "ISK"}),
		column.NewInt64s("n", []int64{1, 2, 3, 4}),
		column.NewFloat64s("v", []float64{0.5, -1.5, 2.5, 3.5}),
		column.NewTimestamps("ts", []int64{
			1_000_000_000, 2_000_000_000, 3_000_000_000, 4_000_000_000,
		}),
	)
}

func TestEvalColumnRefAndLiteral(t *testing.T) {
	b := testBatch()
	c, err := Eval(&sql.ColumnRef{Name: "n"}, b)
	if err != nil || c.Len() != 4 || c.Int64s()[2] != 3 {
		t.Fatalf("column ref: %v %v", c, err)
	}
	lit, err := Eval(&sql.Literal{Val: column.NewInt64(7)}, b)
	if err != nil || lit.Len() != 4 || lit.Int64s()[0] != 7 {
		t.Fatalf("literal broadcast: %v %v", lit, err)
	}
	if _, err := Eval(&sql.ColumnRef{Name: "nope"}, b); err == nil {
		t.Error("unknown column should error")
	}
}

func TestEvalComparisons(t *testing.T) {
	b := testBatch()
	cases := map[string][]int64{
		"n > 2":             {0, 0, 1, 1},
		"n >= 2":            {0, 1, 1, 1},
		"n < 2":             {1, 0, 0, 0},
		"n <= 2":            {1, 1, 0, 0},
		"n = 3":             {0, 0, 1, 0},
		"n <> 3":            {1, 1, 0, 1},
		"station = 'ISK'":   {1, 0, 0, 1},
		"station <> 'ISK'":  {0, 1, 1, 0},
		"station < 'HGN'":   {0, 0, 1, 0},
		"v > 0":             {1, 0, 1, 1},
		"v >= 2.5":          {0, 0, 1, 1},
		"n > v":             {1, 1, 1, 1},
		"v < n":             {1, 1, 1, 1},
		"n BETWEEN 2 AND 3": {0, 1, 1, 0},
		// A NULL literal takes the type of the column it meets, so it
		// compares with every column type and matches no row.
		"station = NULL":           {0, 0, 0, 0},
		"NULL <> station":          {0, 0, 0, 0},
		"n = NULL":                 {0, 0, 0, 0},
		"v < NULL":                 {0, 0, 0, 0},
		"ts >= NULL":               {0, 0, 0, 0},
		"station IN ('ISK', NULL)": {1, 0, 0, 1},
		"station = NULL OR n = 2":  {0, 1, 0, 0},
	}
	for exprStr, want := range cases {
		c, err := Eval(mustExpr(t, exprStr), b)
		if err != nil {
			t.Errorf("%s: %v", exprStr, err)
			continue
		}
		var wantSel []int32
		for i, w := range want {
			if c.Int64s()[i] != w {
				t.Errorf("%s row %d = %d, want %d", exprStr, i, c.Int64s()[i], w)
			}
			if w == 1 {
				wantSel = append(wantSel, int32(i))
			}
		}
		// The selection-vector path Filter takes agrees with Eval.
		sel, err := evalPredSel(mustExpr(t, exprStr), b, nil)
		if err != nil || fmt.Sprint(sel) != fmt.Sprint(wantSel) {
			t.Errorf("%s: selection %v, %v; want %v", exprStr, sel, err, wantSel)
		}
	}
}

func TestEvalTimestampStringCoercion(t *testing.T) {
	base := column.MustNewBatch(column.NewTimestamps("ts", []int64{
		mustTS(t, "2010-01-12T22:14:59"),
		mustTS(t, "2010-01-12T22:15:01"),
		mustTS(t, "2010-01-12T22:15:03"),
	}))
	sel, err := evalPredSel(mustExpr(t, "ts > '2010-01-12T22:15:00.000' AND ts < '2010-01-12T22:15:02.000'"), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 1 {
		t.Errorf("sel = %v, want [1]", sel)
	}
	// Reversed operand order also coerces.
	sel, err = evalPredSel(mustExpr(t, "'2010-01-12T22:15:00.000' < ts"), base, nil)
	if err != nil || len(sel) != 2 {
		t.Errorf("reversed: %v %v", sel, err)
	}
	// Garbage timestamp literal errors out.
	if _, err := evalPredSel(mustExpr(t, "ts > 'not a time'"), base, nil); err == nil {
		t.Error("bad timestamp literal should error")
	}
}

func mustTS(t *testing.T, s string) int64 {
	t.Helper()
	ns, err := column.ParseTimestamp(s)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestEvalBooleanOperators(t *testing.T) {
	b := testBatch()
	cases := map[string][]int64{
		"n > 1 AND v > 0":          {0, 0, 1, 1},
		"n = 1 OR station = 'DBN'": {1, 0, 1, 0},
		"NOT n = 1":                {0, 1, 1, 1},
		"NOT (n = 1 OR n = 2)":     {0, 0, 1, 1},
	}
	for exprStr, want := range cases {
		c, err := Eval(mustExpr(t, exprStr), b)
		if err != nil {
			t.Errorf("%s: %v", exprStr, err)
			continue
		}
		for i, w := range want {
			if c.Int64s()[i] != w {
				t.Errorf("%s row %d = %d, want %d", exprStr, i, c.Int64s()[i], w)
			}
		}
	}
	if _, err := Eval(mustExpr(t, "n AND v > 0"), b); err == nil {
		t.Error("AND over non-boolean should error")
	}
	if _, err := Eval(&sql.Unary{Op: "NOT", X: &sql.ColumnRef{Name: "n"}}, b); err == nil {
		t.Error("NOT over non-boolean should error")
	}
}

func TestEvalArithmetic(t *testing.T) {
	b := testBatch()
	c, err := Eval(mustValueExpr(t, "n + 1"), b)
	if err != nil || c.Type() != column.Int64 || c.Int64s()[0] != 2 {
		t.Fatalf("n+1: %v %v", c, err)
	}
	c, err = Eval(mustValueExpr(t, "n * n - 1"), b)
	if err != nil || c.Int64s()[3] != 15 {
		t.Fatalf("n*n-1: %v %v", c, err)
	}
	c, err = Eval(mustValueExpr(t, "v * 2"), b)
	if err != nil || c.Type() != column.Float64 || c.Float64s()[1] != -3.0 {
		t.Fatalf("v*2: %v %v", c, err)
	}
	// Integer division yields float.
	c, err = Eval(mustValueExpr(t, "n / 2"), b)
	if err != nil || c.Type() != column.Float64 || c.Float64s()[0] != 0.5 {
		t.Fatalf("n/2: %v %v", c, err)
	}
	// Division by zero yields NaN, not a crash.
	c, err = Eval(mustValueExpr(t, "n / 0"), b)
	if err != nil || !math.IsNaN(c.Float64s()[0]) {
		t.Fatalf("n/0: %v %v", c, err)
	}
	// Unary minus.
	c, err = Eval(mustValueExpr(t, "-v"), b)
	if err != nil || c.Float64s()[1] != 1.5 {
		t.Fatalf("-v: %v %v", c, err)
	}
	// String arithmetic is a type error.
	if _, err := Eval(mustValueExpr(t, "station + 1"), b); err == nil {
		t.Error("string arithmetic should error")
	}
}

func TestEvalNullSemantics(t *testing.T) {
	n := column.New("n", column.Int64)
	n.AppendInt64(1)
	n.AppendNull()
	n.AppendInt64(3)
	b := column.MustNewBatch(n)

	// Comparisons with null are false (not null-propagating booleans, but
	// filter-compatible).
	sel, err := evalPredSel(mustExpr(t, "n > 0"), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Errorf("sel = %v", sel)
	}
	// Arithmetic propagates null.
	c, err := Eval(mustValueExpr(t, "n + 1"), b)
	if err != nil || !c.IsNull(1) || c.Int64s()[0] != 2 {
		t.Fatalf("null arith: %v %v", c, err)
	}
}

func TestPredicateTypeCheck(t *testing.T) {
	b := testBatch()
	if _, err := evalPredSel(&sql.ColumnRef{Name: "n"}, b, nil); err == nil {
		t.Error("non-boolean predicate should error")
	}
	if _, err := Eval(mustExpr(t, "station > 1"), b); err == nil {
		t.Error("string vs int comparison should error")
	}
}

func TestFilterMultiplePreds(t *testing.T) {
	b := testBatch()
	out, err := Filter(b, []sql.Expr{
		mustExpr(t, "n > 1"),
		mustExpr(t, "station = 'ISK'"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if c, _ := out.Col("n"); c.Int64s()[0] != 4 {
		t.Errorf("wrong row selected")
	}
	// No predicates: same batch back.
	same, err := Filter(b, nil)
	if err != nil || same != b {
		t.Error("empty filter should be identity")
	}
}

func TestEvalAggregateOutsideContext(t *testing.T) {
	b := testBatch()
	if _, err := Eval(mustValueExpr(t, "AVG(v)"), b); err == nil {
		t.Error("aggregate outside aggregation context should error")
	}
}

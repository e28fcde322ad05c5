package exec

import (
	"testing"
	"testing/quick"

	"repro/internal/column"
	"repro/internal/sql"
)

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"BHZ", "BHZ", true},
		{"BHZ", "BH_", true},
		{"BHZ", "B_Z", true},
		{"BHZ", "bhz", false},
		{"BHZ", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"NL/HGN/BHZ/x.mseed", "%BHZ%", true},
		{"NL/HGN/BHE/x.mseed", "%BHZ%", false},
		{"abc", "a%c", true},
		{"ac", "a%c", true},
		{"abbbc", "a%b%c", true},
		{"abc", "a%b%cd", false},
		{"mseed", "%.mseed", false},
		{"x.mseed", "%.mseed", true},
		{"aaa", "a_a", true},
		{"aaaa", "a_a", false},
		{"%literal", "\\%literal", false}, // no escape support: backslash is literal
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.pat); got != c.want {
			t.Errorf("matchLike(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestMatchLikePercentAbsorbsAnythingQuick(t *testing.T) {
	f := func(prefix, middle, suffix string) bool {
		s := prefix + middle + suffix
		return matchLike(s, prefix+"%"+suffix) || len(prefix)+len(suffix) > len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvalLike(t *testing.T) {
	b := column.MustNewBatch(
		column.NewStrings("ch", []string{"BHZ", "BHE", "LHZ", "BHN"}),
	)
	sel, err := evalPredSel(mustExpr(t, "ch LIKE 'BH_'"), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Errorf("sel = %v", sel)
	}
	sel, err = evalPredSel(mustExpr(t, "ch LIKE '%Z'"), b, nil)
	if err != nil || len(sel) != 2 {
		t.Errorf("%%Z: %v %v", sel, err)
	}
	sel, err = evalPredSel(mustExpr(t, "ch NOT LIKE '%Z'"), b, nil)
	if err != nil || len(sel) != 2 {
		t.Errorf("NOT LIKE: %v %v", sel, err)
	}
	if _, err := evalPredSel(mustExpr(t, "ch LIKE 5"), b, nil); err == nil {
		t.Error("LIKE against a number should error")
	}
}

func TestEvalIsNull(t *testing.T) {
	c := column.New("v", column.Float64)
	c.AppendFloat64(1)
	c.AppendNull()
	c.AppendFloat64(3)
	b := column.MustNewBatch(c)

	sel, err := evalPredSel(mustExpr(t, "v IS NULL"), b, nil)
	if err != nil || len(sel) != 1 || sel[0] != 1 {
		t.Errorf("IS NULL: %v %v", sel, err)
	}
	sel, err = evalPredSel(mustExpr(t, "v IS NOT NULL"), b, nil)
	if err != nil || len(sel) != 2 {
		t.Errorf("IS NOT NULL: %v %v", sel, err)
	}
}

func TestEvalInDesugared(t *testing.T) {
	b := column.MustNewBatch(
		column.NewStrings("st", []string{"ISK", "HGN", "DBN", "WIT"}),
	)
	sel, err := evalPredSel(mustExpr(t, "st IN ('ISK', 'WIT')"), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 3 {
		t.Errorf("IN: %v", sel)
	}
	sel, err = evalPredSel(mustExpr(t, "st NOT IN ('ISK', 'WIT')"), b, nil)
	if err != nil || len(sel) != 2 {
		t.Errorf("NOT IN: %v %v", sel, err)
	}
}

func TestAggregateOverIsNull(t *testing.T) {
	// COUNT rows where value is null, via grouping on IS NULL.
	v := column.New("v", column.Float64)
	v.AppendFloat64(1)
	v.AppendNull()
	v.AppendNull()
	b := column.MustNewBatch(v)
	out, err := Aggregate(b, []sql.Expr{&sql.IsNull{X: &sql.ColumnRef{Name: "v"}}}, []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
}

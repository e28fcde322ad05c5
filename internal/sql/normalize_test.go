package sql

import (
	"strings"
	"testing"

	"repro/internal/column"
)

func TestNormalizeExtractsLiterals(t *testing.T) {
	n, err := Normalize(`SELECT COUNT(*) FROM mseed.dataview
	 WHERE F.station = 'ISK' AND D.sample_value > 500`)
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = ? AND D.sample_value > ?"
	if n.Template != want {
		t.Errorf("template = %q, want %q", n.Template, want)
	}
	if len(n.Params) != 2 {
		t.Fatalf("params = %v, want 2", n.Params)
	}
	if n.Params[0].Type != column.String || n.Params[0].S != "ISK" {
		t.Errorf("param 0 = %v, want 'ISK'", n.Params[0])
	}
	if n.Params[1].Type != column.Int64 || n.Params[1].I != 500 {
		t.Errorf("param 1 = %v, want 500", n.Params[1])
	}
}

// Two spellings that differ only in whitespace, keyword case and literal
// values must share one template — that is the whole point of the cache key.
func TestNormalizeSharesTemplates(t *testing.T) {
	a, err := Normalize(`SELECT station FROM mseed.files WHERE station = 'ISK'`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize("select  station\n from mseed.files\twhere station='HGN'")
	if err != nil {
		t.Fatal(err)
	}
	if a.Template != b.Template {
		t.Errorf("templates differ:\n%q\n%q", a.Template, b.Template)
	}
	if a.Params[0].S == b.Params[0].S {
		t.Error("params should differ")
	}
}

func TestNormalizeLimitStaysLiteral(t *testing.T) {
	n, err := Normalize(`SELECT station FROM mseed.files ORDER BY station LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(n.Template, "LIMIT 7") {
		t.Errorf("LIMIT literal not kept: %q", n.Template)
	}
	if len(n.Params) != 0 {
		t.Errorf("unexpected params %v", n.Params)
	}
	if _, err := ParseTemplate(n.Template); err != nil {
		t.Errorf("template does not re-parse: %v", err)
	}
}

// A '-' in unary position folds into a negative parameter so "x > -5" and
// "x > -7" share one template; a binary '-' stays an operator.
func TestNormalizeNegativeFold(t *testing.T) {
	a, err := Normalize(`SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value < -500`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize(`SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value < -900`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Template != b.Template {
		t.Errorf("negative literals split templates:\n%q\n%q", a.Template, b.Template)
	}
	if a.Params[0].I != -500 || b.Params[0].I != -900 {
		t.Errorf("folded params = %v / %v", a.Params[0], b.Params[0])
	}
	c, err := Normalize(`SELECT sample_value - 1 FROM mseed.data`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Template, "- ?") && !strings.Contains(c.Template, "-?") {
		t.Errorf("binary minus lost: %q", c.Template)
	}
	if c.Params[0].I != 1 {
		t.Errorf("binary-minus operand = %v, want 1", c.Params[0])
	}
}

func TestNormalizeFloatTyping(t *testing.T) {
	n, err := Normalize(`SELECT COUNT(*) FROM mseed.data WHERE sample_value > 1.5`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Params[0].Type != column.Float64 || n.Params[0].F != 1.5 {
		t.Errorf("param = %v, want float 1.5", n.Params[0])
	}
}

func TestNormalizeRejectsMarkers(t *testing.T) {
	if _, err := Normalize(`SELECT station FROM mseed.files WHERE station = ?`); err == nil {
		t.Error("expected error for '?' in an ad-hoc query")
	}
}

func TestCanonicalTemplateKeepsLiterals(t *testing.T) {
	tmpl, err := CanonicalTemplate("select  station from mseed.files\nwhere station = 'ISK' and channel = ?")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT station FROM mseed.files WHERE station = 'ISK' AND channel = ?"
	if tmpl != want {
		t.Errorf("canonical = %q, want %q", tmpl, want)
	}
}

// A prepared template whose only variability is the '?' must canonicalize
// to the same text an ad-hoc query of that shape normalizes to, so the two
// share one cached statement.
func TestCanonicalMatchesNormalized(t *testing.T) {
	tmpl, err := CanonicalTemplate("SELECT station FROM mseed.files WHERE station = ?")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Normalize(`select station from mseed.files where station = 'ISK'`)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl != n.Template {
		t.Errorf("prepared and ad-hoc templates diverge:\n%q\n%q", tmpl, n.Template)
	}
}

func TestParseTemplateCountsParams(t *testing.T) {
	stmt, err := ParseTemplate(`SELECT station FROM mseed.files WHERE station = ? AND channel = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams != 2 {
		t.Errorf("NumParams = %d, want 2", stmt.NumParams)
	}
}

func TestParseRejectsParams(t *testing.T) {
	if _, err := Parse(`SELECT station FROM mseed.files WHERE station = ?`); err == nil {
		t.Error("Parse accepted a parameter marker")
	}
}

func TestBindParams(t *testing.T) {
	stmt, err := ParseTemplate(`SELECT station FROM mseed.files WHERE station = ? AND channel = ?`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindParams(stmt, []column.Value{column.NewString("ISK"), column.NewString("BHE")})
	if err != nil {
		t.Fatal(err)
	}
	if bound.NumParams != 0 {
		t.Errorf("bound statement still has %d params", bound.NumParams)
	}
	if got := bound.String(); !strings.Contains(got, "'ISK'") || !strings.Contains(got, "'BHE'") {
		t.Errorf("bound rendering lacks values: %s", got)
	}
	// The original statement must be untouched (it is cached and shared).
	if stmt.NumParams != 2 || strings.Contains(stmt.String(), "ISK") {
		t.Errorf("BindParams mutated the template statement: %s", stmt)
	}
	if _, err := BindParams(stmt, nil); err == nil {
		t.Error("expected param-count error")
	}
	// Zero-marker statements pass through unchanged.
	plain, err := Parse(`SELECT station FROM mseed.files`)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := BindParams(plain, nil); err != nil || same != plain {
		t.Errorf("zero-param bind: %v, same=%v", err, same == plain)
	}
}

func TestParseParams(t *testing.T) {
	got, err := ParseParams(`'ISK', 42, -3.5, TRUE, NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d values, want 5: %v", len(got), got)
	}
	if got[0].S != "ISK" || got[1].I != 42 || got[2].F != -3.5 {
		t.Errorf("values = %v", got)
	}
	if got[3].Type != column.Bool || got[3].I != 1 {
		t.Errorf("TRUE = %v", got[3])
	}
	if !got[4].Null {
		t.Errorf("NULL = %v", got[4])
	}
	if _, err := ParseParams(`station`); err == nil {
		t.Error("expected error for a bare identifier")
	}
}

package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
)

func TestDeriveIntervalPreds(t *testing.T) {
	stmt, err := sql.Parse(`SELECT COUNT(*) FROM t WHERE
		D.sample_time > '2010-01-12T22:15:00.000'
		AND D.sample_time < '2010-01-12T22:15:02.000'
		AND '2010-01-01' <= D.sample_time
		AND D.sample_value > 5
		AND D.sample_time = D.sample_time`)
	if err != nil {
		t.Fatal(err)
	}
	f, r := deriveIntervalPreds(sql.SplitConjuncts(stmt.Where))
	// Three usable time conjuncts: >, <, and flipped <= ; the value
	// predicate and the column-vs-column one contribute nothing.
	if len(r) != 3 || len(f) != 3 {
		t.Fatalf("derived %d R and %d F preds: %v %v", len(r), len(f), r, f)
	}
	joined := fmt.Sprint(r)
	for _, want := range []string{
		"R.end_time > '2010-01-12T22:15:00.000'",
		"R.start_time < '2010-01-12T22:15:02.000'",
		"R.end_time >= '2010-01-01'",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing derived predicate %q in %s", want, joined)
		}
	}
}

func TestDeriveEqualityBounds(t *testing.T) {
	stmt, _ := sql.Parse(`SELECT COUNT(*) FROM t WHERE D.sample_time = '2010-01-12T12:00:00'`)
	f, r := deriveIntervalPreds(sql.SplitConjuncts(stmt.Where))
	if len(r) != 2 || len(f) != 2 {
		t.Fatalf("equality should derive both bounds: %v %v", r, f)
	}
}

func TestNormalizeComparison(t *testing.T) {
	mk := func(q string) *sql.Binary {
		stmt, err := sql.Parse("SELECT x FROM t WHERE " + q)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Where.(*sql.Binary)
	}
	ref, lit, op, ok := normalizeComparison(mk("a < 5"))
	if !ok || ref.Name != "a" || lit.Val.I != 5 || op != sql.OpLt {
		t.Errorf("a < 5: %v %v %v %v", ref, lit, op, ok)
	}
	ref, _, op, ok = normalizeComparison(mk("5 < a"))
	if !ok || ref.Name != "a" || op != sql.OpGt {
		t.Errorf("5 < a should flip to a > 5: %v %v %v", ref, op, ok)
	}
	_, _, op, ok = normalizeComparison(mk("5 = a"))
	if !ok || op != sql.OpEq {
		t.Errorf("5 = a: %v %v", op, ok)
	}
	if _, _, _, ok := normalizeComparison(mk("a < b")); ok {
		t.Error("column-vs-column should not normalize")
	}
	if _, _, _, ok := normalizeComparison(mk("a AND b")); ok {
		t.Error("non-comparison should not normalize")
	}
}

func TestLazyPlanDerivesRecordPruning(t *testing.T) {
	// Q1 *without* its explicit R.start_time predicates: the derived
	// interval predicates must appear on the records (and files) scans.
	q := `SELECT AVG(D.sample_value) FROM mseed.dataview
	      WHERE F.station = 'ISK' AND F.channel = 'BHE'
	      AND D.sample_time > '2010-01-12T22:15:00.000'
	      AND D.sample_time < '2010-01-12T22:15:02.000'`
	p := build(t, q, Lazy)
	rScan, _ := findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableRecords
	}).(*Scan)
	if rScan == nil || len(rScan.Preds) != 2 {
		t.Fatalf("records scan should carry 2 derived preds, has %+v\n%s", rScan, Render(p.Root))
	}
	fScan, _ := findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableFiles
	}).(*Scan)
	if fScan == nil || len(fScan.Preds) != 4 { // 2 user + 2 derived
		t.Fatalf("files scan should carry 4 preds, has %+v", fScan)
	}
	// Eager mode plans are untouched by the derivation.
	pe := build(t, q, Eager)
	rScanE, _ := findNode(pe.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableRecords
	}).(*Scan)
	if rScanE == nil || len(rScanE.Preds) != 0 {
		t.Errorf("eager records scan should carry no derived preds: %+v", rScanE)
	}
}

// TestCompileWindow pins which D.sample_time conjuncts the window lifts and
// the inclusive bounds it folds them into: every comparison shape with an
// exact time literal — string or integer ns, on either side, BETWEEN — and
// none of float, NULL, unparseable, <>, OR or NOT, which stay for the Filter.
func TestCompileWindow(t *testing.T) {
	const t0 = 1263254400000000000 // 2010-01-12T00:00:00Z
	cases := []struct {
		where   string
		lo, hi  int64
		lifted  int
		display string
	}{
		{`D.sample_time >= '2010-01-12' AND D.sample_time < '2010-01-12T00:00:01'`, t0, t0 + 1e9 - 1, 2,
			"[2010-01-12T00:00:00, 2010-01-12T00:00:00.999999999]"},
		{`D.sample_time BETWEEN '2010-01-12' AND '2010-01-12T00:00:01'`, t0, t0 + 1e9, 2,
			"[2010-01-12T00:00:00, 2010-01-12T00:00:01]"},
		{`'2010-01-12' < D.sample_time`, t0 + 1, math.MaxInt64, 1, "[2010-01-12T00:00:00.000000001, +inf]"},
		{`1263254400000000000 >= D.sample_time`, math.MinInt64, t0, 1, "[-inf, 2010-01-12T00:00:00]"},
		{`D.sample_time = 1263254400000000000 AND D.sample_value > 0`, t0, t0, 1,
			"[2010-01-12T00:00:00, 2010-01-12T00:00:00]"},
		{`D.sample_time > 5 AND D.sample_time < 3`, 6, 2, 2, "empty"},
		{`D.sample_time > 9223372036854775807`, math.MaxInt64, math.MinInt64, 1, "empty"},
		{`D.sample_time >= '2010-01-12' AND D.sample_time >= '2010-01-11' AND D.sample_time <= '2010-01-13'`,
			t0, t0 + 86400e9, 3, "[2010-01-12T00:00:00, 2010-01-13T00:00:00]"},
		{`D.sample_time > 1.5`, 0, 0, 0, ""},
		{`D.sample_time > NULL`, 0, 0, 0, ""},
		{`D.sample_time > 'garbage'`, 0, 0, 0, ""},
		{`D.sample_time <> '2010-01-12'`, 0, 0, 0, ""},
		{`(D.sample_time >= '2010-01-12' OR 1 = 0)`, 0, 0, 0, ""},
		{`NOT D.sample_time < '2010-01-12'`, 0, 0, 0, ""},
		{`D.sample_time > D.sample_time`, 0, 0, 0, ""},
		{`D.sample_value > 5`, 0, 0, 0, ""},
	}
	for _, c := range cases {
		stmt, err := sql.Parse("SELECT x FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		conj := sql.SplitConjuncts(stmt.Where)
		w, rest := CompileWindow(conj)
		if c.lifted == 0 {
			if w != nil || len(rest) != len(conj) {
				t.Errorf("%s: lifted %v, left %d of %d conjuncts", c.where, w, len(rest), len(conj))
			}
			continue
		}
		if w == nil {
			t.Errorf("%s: nothing lifted", c.where)
			continue
		}
		if w.Lo != c.lo || w.Hi != c.hi || len(w.Preds) != c.lifted || len(rest) != len(conj)-c.lifted {
			t.Errorf("%s: window [%d, %d] from %d conjuncts, %d left; want [%d, %d] from %d",
				c.where, w.Lo, w.Hi, len(w.Preds), len(rest), c.lo, c.hi, c.lifted)
		}
		if got := w.String(); got != c.display {
			t.Errorf("%s: window renders %q, want %q", c.where, got, c.display)
		}
	}
}

// TestDeriveSkipsLiteralsThatDoNotCoerce: a literal the kernels reject
// derives no metadata predicate, so the error names the conjunct the user
// wrote rather than a derived R.end_time / F.end_time one.
func TestDeriveSkipsLiteralsThatDoNotCoerce(t *testing.T) {
	stmt, err := sql.Parse(`SELECT x FROM t WHERE D.sample_time > 'garbage' AND D.sample_time < TRUE
		AND D.sample_time >= 1.5 AND D.sample_time <= NULL`)
	if err != nil {
		t.Fatal(err)
	}
	f, r := deriveIntervalPreds(sql.SplitConjuncts(stmt.Where))
	// The float and NULL literals coerce, and derive their bounds.
	if got := fmt.Sprint(r); len(r) != 2 || len(f) != 2 || strings.Contains(got, "garbage") || strings.Contains(got, "TRUE") {
		t.Errorf("derived %v and %v", r, f)
	}
}

// TestLazyPlanLiftsSampleWindow checks the plan the window produces: the
// lifted conjuncts leave the Filter (which disappears when nothing is left),
// the LazyExtract line shows the window, D.sample_time leaves Cols unless
// something else reads it, and Eager and External plans are untouched.
func TestLazyPlanLiftsSampleWindow(t *testing.T) {
	const where = ` FROM mseed.dataview WHERE F.station = 'ISK'
		AND D.sample_time >= '2010-01-12T02:00:00' AND D.sample_time < '2010-01-12T03:00:00'`
	extract := func(p *Plans) *LazyExtract {
		le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
		if le == nil {
			t.Fatalf("no LazyExtract:\n%s", Render(p.Root))
		}
		return le
	}
	filter := func(p *Plans) *Filter {
		f, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*Filter); return ok }).(*Filter)
		return f
	}

	p := build(t, `SELECT AVG(D.sample_value), COUNT(*)`+where, Lazy)
	le := extract(p)
	if le.Window == nil || len(le.Window.Preds) != 2 || len(le.DataPreds) != 2 {
		t.Fatalf("window %+v, data preds %v", le.Window, le.DataPreds)
	}
	if f := filter(p); f != nil {
		t.Errorf("a Filter with nothing left was built: %s", f.Describe())
	}
	if got := strings.Join(le.Cols, ","); got != "D.sample_value" {
		t.Errorf("Cols = %q, want D.sample_value alone", got)
	}
	if got := le.Describe(); !strings.Contains(got, "(sample window: [2010-01-12T02:00:00, 2010-01-12T02:59:59.999999999])") {
		t.Errorf("plan line %q does not show the window", got)
	}

	// D.sample_time stays when the statement reads it; the unliftable
	// conjunct stays in the Filter above.
	p = build(t, `SELECT D.sample_time, D.sample_value`+where+` AND D.sample_value > 0`, Lazy)
	le = extract(p)
	if got := strings.Join(le.Cols, ","); got != "D.sample_time,D.sample_value" {
		t.Errorf("Cols = %q", got)
	}
	if f := filter(p); f == nil || len(f.Preds) != 1 || f.Preds[0].String() != "(D.sample_value > 0)" {
		t.Errorf("Filter left: %v\n%s", f, Render(p.Root))
	}

	for _, mode := range []Mode{Eager, External} {
		p := build(t, `SELECT AVG(D.sample_value)`+where, mode)
		if le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract); le != nil && le.Window != nil {
			t.Errorf("%v plan lifted a window", mode)
		}
		if f := filter(p); f == nil || !strings.Contains(exprList(f.Preds), "D.sample_time") {
			t.Errorf("%v plan lost its sample-time filter:\n%s", mode, Render(p.Root))
		}
	}
}

package sql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/column"
)

// The two sample queries of the paper's Figure 1, verbatim.
const (
	Figure1Q1 = `SELECT AVG(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'ISK'
AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

	Figure1Q2 = `SELECT F.station,
MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.network = 'NL'
AND F.channel = 'BHZ'
GROUP BY F.station;`
)

func mustParse(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseFigure1Q1(t *testing.T) {
	stmt := mustParse(t, Figure1Q1)
	if len(stmt.Items) != 1 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	call, ok := stmt.Items[0].Expr.(*Call)
	if !ok || call.Func != "AVG" {
		t.Fatalf("item 0 = %v", stmt.Items[0])
	}
	if stmt.From.Name != "mseed.dataview" {
		t.Errorf("from = %q", stmt.From.Name)
	}
	conj := SplitConjuncts(stmt.Where)
	if len(conj) != 6 {
		t.Fatalf("conjuncts = %d, want 6", len(conj))
	}
	first, ok := conj[0].(*Binary)
	if !ok || first.Op != OpEq {
		t.Fatalf("first conjunct %v", conj[0])
	}
	if ref, ok := first.L.(*ColumnRef); !ok || ref.Name != "F.station" {
		t.Errorf("first lhs %v", first.L)
	}
	if lit, ok := first.R.(*Literal); !ok || lit.Val.S != "ISK" {
		t.Errorf("first rhs %v", first.R)
	}
	if stmt.HasAggregates() != true {
		t.Error("HasAggregates")
	}
	if stmt.Limit != -1 || len(stmt.GroupBy) != 0 {
		t.Error("unexpected clauses")
	}
}

func TestParseFigure1Q2(t *testing.T) {
	stmt := mustParse(t, Figure1Q2)
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if ref, ok := stmt.Items[0].Expr.(*ColumnRef); !ok || ref.Name != "F.station" {
		t.Errorf("item 0 = %v", stmt.Items[0].Expr)
	}
	for i, fn := range map[int]string{1: "MIN", 2: "MAX"} {
		call, ok := stmt.Items[i].Expr.(*Call)
		if !ok || call.Func != fn {
			t.Errorf("item %d = %v, want %s", i, stmt.Items[i].Expr, fn)
		}
	}
	if len(stmt.GroupBy) != 1 {
		t.Fatalf("group by = %d", len(stmt.GroupBy))
	}
	if ref, ok := stmt.GroupBy[0].(*ColumnRef); !ok || ref.Name != "F.station" {
		t.Errorf("group by %v", stmt.GroupBy[0])
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, `SELECT F.uri FROM mseed.files F
		JOIN mseed.records R ON F.file_id = R.file_id
		INNER JOIN mseed.data D ON R.file_id = D.file_id AND R.seqno = D.seqno`)
	if stmt.From.Name != "mseed.files" || stmt.From.Alias != "F" {
		t.Errorf("from = %+v", stmt.From)
	}
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	if stmt.Joins[1].Table.Alias != "D" {
		t.Errorf("join 1 = %+v", stmt.Joins[1].Table)
	}
	conj := SplitConjuncts(stmt.Joins[1].On)
	if len(conj) != 2 {
		t.Errorf("join 1 conjuncts = %d", len(conj))
	}
}

func TestParseLiteralsAndOperators(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE a >= 1.5 AND b <> -3 OR NOT c = 'it''s' AND d <= 1e3`)
	if stmt.Where == nil {
		t.Fatal("no where")
	}
	top, ok := stmt.Where.(*Binary)
	if !ok || top.Op != OpOr {
		t.Fatalf("top = %v; OR must bind loosest", stmt.Where)
	}
	s := stmt.Where.String()
	if !strings.Contains(s, "'it''s'") {
		t.Errorf("string literal escape lost: %s", s)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE x BETWEEN 1 AND 5`)
	b, ok := stmt.Where.(*Binary)
	if !ok || b.Op != OpAnd {
		t.Fatalf("top %v", stmt.Where)
	}
	lo, ok1 := b.L.(*Binary)
	hi, ok2 := b.R.(*Binary)
	if !ok1 || !ok2 || lo.Op != OpGe || hi.Op != OpLe {
		t.Fatalf("desugar: %v", stmt.Where)
	}
}

func TestParseOrderLimitAlias(t *testing.T) {
	stmt := mustParse(t, `SELECT station s, AVG(v) AS m FROM t GROUP BY station ORDER BY m DESC, s ASC LIMIT 10`)
	if stmt.Items[0].Alias != "s" || stmt.Items[1].Alias != "m" {
		t.Errorf("aliases: %+v", stmt.Items)
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by: %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Errorf("limit = %d", stmt.Limit)
	}
}

func TestParseCountStarAndDistinct(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*), COUNT(DISTINCT station) FROM t`)
	c0 := stmt.Items[0].Expr.(*Call)
	if !c0.Star || c0.Func != "COUNT" {
		t.Errorf("item 0: %v", c0)
	}
	c1 := stmt.Items[1].Expr.(*Call)
	if !c1.Distinct || len(c1.Args) != 1 {
		t.Errorf("item 1: %v", c1)
	}
}

func TestParseArithmetic(t *testing.T) {
	stmt := mustParse(t, `SELECT a + b * 2 - c / 4 FROM t`)
	// Must parse as (a + (b*2)) - (c/4).
	want := "((a + (b * 2)) - (c / 4))"
	if got := stmt.Items[0].Expr.String(); got != want {
		t.Errorf("precedence: got %s, want %s", got, want)
	}
}

func TestParseUnaryMinusFolding(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE x > -5 AND y < -2.5`)
	conj := SplitConjuncts(stmt.Where)
	lit := conj[0].(*Binary).R.(*Literal)
	if lit.Val.Type != column.Int64 || lit.Val.I != -5 {
		t.Errorf("folded int: %v", lit.Val)
	}
	lit2 := conj[1].(*Binary).R.(*Literal)
	if lit2.Val.Type != column.Float64 || lit2.Val.F != -2.5 {
		t.Errorf("folded float: %v", lit2.Val)
	}
}

func TestParseComments(t *testing.T) {
	stmt := mustParse(t, "SELECT x -- the value\nFROM t -- the table\n")
	if stmt.From.Name != "t" {
		t.Errorf("from = %q", stmt.From.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t GROUP x",
		"SELECT x FROM t LIMIT x",
		"SELECT x FROM t LIMIT -1",
		"SELECT x FROM t; SELECT y FROM t",
		"SELECT FOO(x) FROM t",
		"SELECT AVG(*) FROM t",
		"SELECT AVG(a, b) FROM t",
		"SELECT x FROM t WHERE 'unterminated",
		"SELECT x FROM t WHERE a ! b",
		"SELECT x FROM t WHERE (a = 1",
		"SELECT x. FROM t",
		"SELECT x FROM t JOIN u",
		"SELECT x FROM t JOIN u ON",
		"SELECT x FROM t WHERE a BETWEEN 1",
		"SELECT x FROM t @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Rendering a parsed statement and re-parsing it must be stable.
	for _, src := range []string{Figure1Q1, Figure1Q2,
		`SELECT a, COUNT(*) FROM t WHERE x = 1 OR y < 'z' GROUP BY a ORDER BY a DESC LIMIT 3`,
	} {
		s1 := mustParse(t, src)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip:\n first: %s\nsecond: %s", s1, s2)
		}
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3`)
	conj := SplitConjuncts(stmt.Where)
	if len(conj) != 3 {
		t.Fatalf("split: %d", len(conj))
	}
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil)")
	}
}

func TestWalkColumnRefs(t *testing.T) {
	stmt := mustParse(t, `SELECT AVG(D.v) FROM t WHERE F.a = 1 AND NOT (R.b < F.c + 2)`)
	var names []string
	WalkColumnRefs(stmt.Where, func(c *ColumnRef) { names = append(names, c.Name) })
	if len(names) != 3 || names[0] != "F.a" || names[1] != "R.b" || names[2] != "F.c" {
		t.Errorf("refs = %v", names)
	}
	WalkColumnRefs(stmt.Items[0].Expr, func(c *ColumnRef) { names = append(names, c.Name) })
	if names[len(names)-1] != "D.v" {
		t.Errorf("call arg refs = %v", names)
	}
}

func TestLexTokens(t *testing.T) {
	lx := lexer{src: "SELECT a1, <= >= <> != ( ) * ; 3.5 'x'"}
	var toks []Token
	for len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
		tok, err := lx.next()
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokComma, TokOp, TokOp, TokOp, TokOp, TokLParen, TokRParen, TokStar, TokSemicolon, TokNumber, TokString, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v (%q), want %v", i, toks[i].Kind, toks[i].Text, k)
		}
	}
	if toks[6].Text != "<>" { // != normalizes to <>
		t.Errorf("!= lexed as %q", toks[6].Text)
	}
}

// TestParseDepthBound: an expression nests up to maxDepth levels —
// parentheses, function calls, NOT and unary minus each open one — and a
// deeper one fails at the offset of the token that opens level maxDepth+1,
// in time independent of how long the chain behind that token runs.
func TestParseDepthBound(t *testing.T) {
	const where = "SELECT x FROM t WHERE "
	shapes := []struct {
		name, prefix, open, body, close, suffix string
		levels, at                              int // levels one open adds; offset in open of the level maxDepth+1 opens
	}{
		{"parentheses", where, "(", "a = 1", ")", "", 1, 0},
		{"NOT", where, "NOT ", "a = 1", "", "", 1, 0},
		{"unary minus", where, "- ", "a", "", " = 1", 1, 0},
		{"calls", "SELECT ", "MIN(", "a", ")", " FROM t", 1, 3},
		{"NOT and parentheses", where, "NOT (", "a = 1", ")", "", 2, 0},
		{"minus and parentheses", where, "-(", "a", ")", " = 1", 2, 0},
	}
	for _, sh := range shapes {
		nested := func(n int) string {
			return sh.prefix + strings.Repeat(sh.open, n) + sh.body + strings.Repeat(sh.close, n) + sh.suffix
		}
		n := maxDepth / sh.levels
		if _, err := Parse(nested(n)); err != nil {
			t.Errorf("%s: %d levels: %v", sh.name, n*sh.levels, err)
		}
		_, err := Parse(nested(n + 1))
		want := fmt.Sprintf("sql: at offset %d: expression nested deeper than %d levels", len(sh.prefix)+n*len(sh.open)+sh.at, maxDepth)
		if err == nil || err.Error() != want {
			t.Errorf("%s: %d levels: error %v, want %q", sh.name, (n+1)*sh.levels, err, want)
		}
	}

	for _, c := range []struct {
		name string
		src  string
		at   int
	}{
		{"100,000 NOTs", where + strings.Repeat("NOT ", 100_000) + "a = 1", len(where) + 4*maxDepth},
		{"300,000 parentheses", where + strings.Repeat("(", 300_000) + "a = 1" + strings.Repeat(")", 300_000), len(where) + maxDepth},
	} {
		start := time.Now()
		_, err := Parse(c.src)
		took := time.Since(start)
		if want := fmt.Sprintf("sql: at offset %d: expression nested", c.at); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want it to start %q", c.name, err, want)
		}
		if took > 10*time.Millisecond {
			t.Errorf("%s: failing took %v, want < 10ms", c.name, took)
		}
	}
}

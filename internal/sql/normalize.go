package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/column"
)

// Normalized is the outcome of normalizing an ad-hoc query: the statement
// text with every literal replaced by a positional '?' marker, rendered in
// canonical single-space form, plus the extracted literal values in marker
// order. Two queries that differ only in whitespace, keyword case or
// literal values normalize to the same Template — the key the warehouse
// statement and result caches share with explicitly prepared statements.
type Normalized struct {
	Template string
	Params   []column.Value
}

// Normalize lexes src and extracts its literals into parameters. Numbers
// and strings become '?' (a unary minus directly before a number folds into
// a negative parameter); TRUE/FALSE/NULL stay keywords, and the number
// after LIMIT stays literal because the grammar requires a raw number
// there. Explicit '?' markers are rejected — an ad-hoc query has no values
// to bind them with. Normalize does not parse: callers must still
// ParseTemplate the returned template (and fall back to parsing the
// original text when that fails, so error messages point at real offsets).
func Normalize(src string) (Normalized, error) {
	tmpl, params, err := renderTemplate(src, true)
	if err != nil {
		return Normalized{}, err
	}
	return Normalized{Template: tmpl, Params: params}, nil
}

// CanonicalTemplate renders src in the same canonical form Normalize uses
// but keeps literals in place — only explicit '?' markers remain
// parameters. It is the statement key for PREPARE: two spellings of the
// same template canonicalize identically, and a prepared "x = ?" is the
// same cached statement as ad-hoc "x = 5" queries (whose normalization
// yields the same template when the rest matches).
func CanonicalTemplate(src string) (string, error) {
	tmpl, _, err := renderTemplate(src, false)
	return tmpl, err
}

// renderTemplate joins src's tokens into canonical text. With extract set,
// literals are pulled out into params and rendered as '?'.
func renderTemplate(src string, extract bool) (string, []column.Value, error) {
	var sb strings.Builder
	var params []column.Value
	var prev Token
	wrote := false
	emit := func(t Token, text string) {
		if wrote && needSpace(prev, t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(text)
		prev = t
		wrote = true
	}
	for lx := (lexer{src: src}); ; {
		t, err := lx.next()
		if err != nil {
			return "", nil, err
		}
		switch t.Kind {
		case TokEOF:
			return sb.String(), params, nil
		case TokSemicolon:
			if lx.peek().Kind == TokEOF {
				continue // drop the optional trailing semicolon
			}
			emit(t, ";") // mid-stream ';' is a syntax error; keep it so parsing still fails
		case TokString:
			if extract {
				params = append(params, column.NewString(t.Text))
				emit(Token{Kind: TokQuestion, Text: "?"}, "?")
				continue
			}
			emit(t, "'"+strings.ReplaceAll(t.Text, "'", "''")+"'")
		case TokNumber:
			// The grammar requires a raw number after LIMIT; keep it
			// literal so the template stays parseable.
			if extract && !(prev.Kind == TokKeyword && prev.Text == "LIMIT") {
				v, err := numberValue(t.Text, false)
				if err != nil {
					return "", nil, err
				}
				params = append(params, v)
				emit(Token{Kind: TokQuestion, Text: "?"}, "?")
				continue
			}
			emit(t, t.Text)
		case TokOp:
			// A '-' in unary position directly before a number folds into
			// a negative parameter, mirroring the parser's literal folding
			// — so "x > -5" and "x > -7" share one template.
			if extract && t.Text == "-" && lx.peek().Kind == TokNumber &&
				unaryPosition(prev, wrote) && !(prev.Kind == TokKeyword && prev.Text == "LIMIT") {
				num, _ := lx.next()
				v, err := numberValue(num.Text, true)
				if err != nil {
					return "", nil, err
				}
				params = append(params, v)
				emit(Token{Kind: TokQuestion, Text: "?"}, "?")
				continue
			}
			emit(t, t.Text)
		case TokQuestion:
			if extract {
				return "", nil, fmt.Errorf("sql: '?' parameter marker in an ad-hoc query; use PREPARE/EXECUTE")
			}
			emit(t, "?")
		default:
			emit(t, t.Text)
		}
	}
}

// unaryPosition reports whether a '-' following prev negates an operand
// (rather than subtracting): at the start of input or after an operator,
// keyword, comma or '('.
func unaryPosition(prev Token, wrote bool) bool {
	if !wrote {
		return true
	}
	switch prev.Kind {
	case TokOp, TokKeyword, TokComma, TokLParen:
		return true
	}
	return false
}

// numberValue types a numeric literal exactly like parsePrimary: float when
// the text carries a dot or exponent, int64 otherwise.
func numberValue(text string, neg bool) (column.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return column.Value{}, fmt.Errorf("sql: bad number %q", text)
		}
		if neg {
			f = -f
		}
		return column.NewFloat64(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return column.Value{}, fmt.Errorf("sql: bad number %q", text)
	}
	if neg {
		n = -n
	}
	return column.NewInt64(n), nil
}

// needSpace decides whether canonical rendering separates two adjacent
// tokens. The rules keep qualified names ("F.station"), calls ("COUNT(*)")
// and punctuation tight while everything else gets one space.
func needSpace(prev, cur Token) bool {
	switch prev.Kind {
	case TokDot, TokLParen:
		return false
	}
	switch cur.Kind {
	case TokDot, TokComma, TokRParen, TokSemicolon:
		return false
	case TokLParen:
		return prev.Kind != TokIdent // function calls: IDENT '(' stays tight
	}
	return true
}

// BindParams substitutes the statement's '?' markers with the given values
// and returns the bound statement; stmt itself is never mutated (unchanged
// subtrees are shared, so a zero-marker statement is returned as-is). The
// value count must match stmt.NumParams.
func BindParams(stmt *SelectStmt, params []column.Value) (*SelectStmt, error) {
	if len(params) != stmt.NumParams {
		return nil, fmt.Errorf("sql: statement wants %d parameter(s), got %d", stmt.NumParams, len(params))
	}
	if stmt.NumParams == 0 {
		return stmt, nil
	}
	out := *stmt
	out.NumParams = 0
	if len(stmt.Items) > 0 {
		out.Items = make([]SelectItem, len(stmt.Items))
		copy(out.Items, stmt.Items)
		for i := range out.Items {
			if out.Items[i].Expr != nil {
				out.Items[i].Expr = substParams(out.Items[i].Expr, params)
			}
		}
	}
	if len(stmt.Joins) > 0 {
		out.Joins = make([]JoinClause, len(stmt.Joins))
		copy(out.Joins, stmt.Joins)
		for i := range out.Joins {
			out.Joins[i].On = substParams(out.Joins[i].On, params)
		}
	}
	if stmt.Where != nil {
		out.Where = substParams(stmt.Where, params)
	}
	if len(stmt.GroupBy) > 0 {
		out.GroupBy = make([]Expr, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			out.GroupBy[i] = substParams(g, params)
		}
	}
	if len(stmt.OrderBy) > 0 {
		out.OrderBy = make([]OrderItem, len(stmt.OrderBy))
		copy(out.OrderBy, stmt.OrderBy)
		for i := range out.OrderBy {
			out.OrderBy[i].Expr = substParams(out.OrderBy[i].Expr, params)
		}
	}
	return &out, nil
}

// substParams rewrites Params to Literals, sharing unchanged subtrees.
func substParams(e Expr, params []column.Value) Expr {
	switch x := e.(type) {
	case *Param:
		return &Literal{Val: params[x.Index]}
	case *Binary:
		l, r := substParams(x.L, params), substParams(x.R, params)
		if l == x.L && r == x.R {
			return x
		}
		return &Binary{Op: x.Op, L: l, R: r}
	case *Unary:
		if nx := substParams(x.X, params); nx != x.X {
			return &Unary{Op: x.Op, X: nx}
		}
		return x
	case *IsNull:
		if nx := substParams(x.X, params); nx != x.X {
			return &IsNull{X: nx, Not: x.Not}
		}
		return x
	case *Call:
		var args []Expr
		for i, a := range x.Args {
			na := substParams(a, params)
			if args == nil && na != a {
				args = make([]Expr, len(x.Args))
				copy(args, x.Args[:i])
			}
			if args != nil {
				args[i] = na
			}
		}
		if args == nil {
			return x
		}
		return &Call{Func: x.Func, Args: args, Star: x.Star, Distinct: x.Distinct}
	default:
		return e
	}
}

// ParseParams parses a comma- or whitespace-separated list of SQL literals
// ('ISK', 42, -3.5, TRUE, NULL) into values, for binding EXECUTE parameters
// given as text (the REPL's \execute line).
func ParseParams(s string) ([]column.Value, error) {
	var out []column.Value
	for lx := (lexer{src: s}); ; {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		switch {
		case t.Kind == TokEOF:
			return out, nil
		case t.Kind == TokComma:
			continue
		case t.Kind == TokString:
			out = append(out, column.NewString(t.Text))
		case t.Kind == TokNumber:
			v, err := numberValue(t.Text, false)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		case t.Kind == TokOp && t.Text == "-" && lx.peek().Kind == TokNumber:
			num, _ := lx.next()
			v, err := numberValue(num.Text, true)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		case t.Kind == TokKeyword && t.Text == "TRUE":
			out = append(out, column.NewBool(true))
		case t.Kind == TokKeyword && t.Text == "FALSE":
			out = append(out, column.NewBool(false))
		case t.Kind == TokKeyword && t.Text == "NULL":
			out = append(out, column.NewNull(column.Int64))
		default:
			return nil, fmt.Errorf("sql: bad parameter literal %q", t.Text)
		}
	}
}

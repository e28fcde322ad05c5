package sql

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/column"
)

// Parse parses one SELECT statement (an optional trailing semicolon is
// allowed). Parameter markers ('?') are rejected — a statement with markers
// is a prepared-statement template and must go through ParseTemplate.
func Parse(src string) (*SelectStmt, error) {
	stmt, err := ParseTemplate(src)
	if err != nil {
		return nil, err
	}
	if stmt.NumParams > 0 {
		return nil, fmt.Errorf("sql: statement has %d parameter marker(s); use PREPARE/EXECUTE to bind them", stmt.NumParams)
	}
	return stmt, nil
}

// ParseTemplate parses one SELECT statement that may contain positional
// parameter markers ('?'). The returned statement carries NumParams and
// must be bound with BindParams before planning.
func ParseTemplate(src string) (*SelectStmt, error) {
	p := &parser{lx: lexer{src: src}}
	p.advance()
	stmt, err := p.parseSelect()
	if err == nil && p.peek().Kind == TokSemicolon {
		p.advance()
	}
	if err == nil && p.peek().Kind != TokEOF {
		err = p.errf("unexpected %s %q after statement", p.peek().Kind, p.peek().Text)
	}
	if err = cmp.Or(p.lexErr, err); err != nil {
		return nil, err
	}
	stmt.NumParams = p.params
	return stmt, nil
}

// parser lexes as it parses, so a statement that fails early fails fast.
// After a lexing error every token is TokEOF, and lexErr is the error.
type parser struct {
	lx     lexer
	tok    Token // the current token
	lexErr error
	params int // '?' markers seen so far (assigns Param.Index)
	depth  int // nesting levels open at the current token (see nest)
}

// maxDepth bounds expression nesting: parentheses, function calls, NOT and
// unary minus each open one level, and parsing, rendering and planning each
// recurse once per level.
const maxDepth = 256

// nest opens a nesting level, failing past maxDepth; the caller closes it.
func (p *parser) nest() error {
	if p.depth == maxDepth {
		return p.errf("expression nested deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) peek() Token { return p.tok }

// advance consumes the current token and lexes the next.
func (p *parser) advance() Token {
	t := p.tok
	var err error
	if p.tok, err = p.lx.next(); err != nil {
		p.lexErr = cmp.Or(p.lexErr, err)
		p.tok = Token{Kind: TokEOF, Pos: p.lx.pos}
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.Kind != TokKeyword || t.Text != kw {
		return p.errf("expected %s, found %q", kw, t.Text)
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

// parseQualifiedName reads IDENT (DOT IDENT)* and returns the dotted text.
func (p *parser) parseQualifiedName() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", t.Text)
	}
	p.advance()
	name := t.Text
	for p.peek().Kind == TokDot {
		p.advance()
		nt := p.peek()
		if nt.Kind != TokIdent {
			return "", p.errf("expected identifier after '.', found %q", nt.Text)
		}
		p.advance()
		name += "." + nt.Text
	}
	return name, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// Select list.
	for {
		if p.peek().Kind == TokStar {
			p.advance()
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.atKeyword("AS") {
				p.advance()
				t := p.peek()
				if t.Kind != TokIdent {
					return nil, p.errf("expected alias after AS, found %q", t.Text)
				}
				p.advance()
				item.Alias = t.Text
			} else if p.peek().Kind == TokIdent {
				// Bare alias.
				item.Alias = p.advance().Text
			}
			stmt.Items = append(stmt.Items, item)
		}
		if p.peek().Kind == TokComma {
			p.advance()
			continue
		}
		break
	}

	// FROM.
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = ref

	// Joins.
	for p.atKeyword("JOIN") || p.atKeyword("INNER") {
		if p.atKeyword("INNER") {
			p.advance()
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		jref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: jref, On: cond})
	}

	// WHERE.
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	// GROUP BY.
	if p.atKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseKey("GROUP BY")
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.peek().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
	}

	// ORDER BY.
	if p.atKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseKey("ORDER BY")
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.atKeyword("DESC") {
				p.advance()
				item.Desc = true
			} else if p.atKeyword("ASC") {
				p.advance()
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.peek().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
	}

	// LIMIT.
	if p.atKeyword("LIMIT") {
		p.advance()
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.Text)
		}
		p.advance()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		stmt.Limit = n
	}

	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.parseQualifiedName()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.atKeyword("AS") {
		p.advance()
	}
	if p.peek().Kind == TokIdent {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

// Expression grammar, lowest precedence first:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((= | <> | < | <= | > | >=) addExpr
//	         | BETWEEN addExpr AND addExpr)?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | call | columnRef | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokOp {
		if op, ok := cmpOps[t.Text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	negate := false
	if p.atKeyword("NOT") {
		// expr NOT IN (...) / expr NOT LIKE 'pat' / fall through otherwise.
		if nt := p.lx.peek(); nt.Kind == TokKeyword && (nt.Text == "IN" || nt.Text == "LIKE" || nt.Text == "BETWEEN") {
			p.advance()
			negate = true
		}
	}
	if p.atKeyword("IN") {
		p.advance()
		if p.peek().Kind != TokLParen {
			return nil, p.errf("expected '(' after IN")
		}
		p.advance()
		var alts Expr
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			eq := Expr(&Binary{Op: OpEq, L: left, R: item})
			if alts == nil {
				alts = eq
			} else {
				alts = &Binary{Op: OpOr, L: alts, R: eq}
			}
			if p.peek().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		if p.peek().Kind != TokRParen {
			return nil, p.errf("expected ')' to close IN list, found %q", p.peek().Text)
		}
		p.advance()
		if negate {
			return &Unary{Op: "NOT", X: alts}, nil
		}
		return alts, nil
	}
	if p.atKeyword("LIKE") {
		p.advance()
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&Binary{Op: OpLike, L: left, R: pat})
		if negate {
			return &Unary{Op: "NOT", X: like}, nil
		}
		return like, nil
	}
	if p.atKeyword("IS") {
		p.advance()
		not := false
		if p.atKeyword("NOT") {
			p.advance()
			not = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Not: not}, nil
	}
	if negate {
		return nil, p.errf("expected IN, LIKE or BETWEEN after NOT")
	}
	if p.atKeyword("BETWEEN") {
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		// Desugar: x BETWEEN a AND b  =>  x >= a AND x <= b.
		return &Binary{
			Op: OpAnd,
			L:  &Binary{Op: OpGe, L: left, R: lo},
			R:  &Binary{Op: OpLe, L: left, R: hi},
		}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp || (t.Text != "+" && t.Text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.Text == "-" {
			op = OpSub
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		isMul := t.Kind == TokStar
		isDiv := t.Kind == TokOp && t.Text == "/"
		if !isMul && !isDiv {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if isDiv {
			op = OpDiv
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

// parseKey parses one GROUP BY or ORDER BY key and rejects a bare constant
// (a literal or a '?' marker). A constant neither groups nor orders
// anything, and this grammar has no select-list ordinals, so "ORDER BY 3"
// would sort on the number three and hand the rows back in table order.
func (p *parser) parseKey(clause string) (Expr, error) {
	at := p.peek().Pos
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch e.(type) {
	case *Literal, *Param:
		return nil, fmt.Errorf("sql: at offset %d: %s key %s is a constant; select-list ordinals are not supported, name the column or expression", at, clause, e)
	}
	return e, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokOp && t.Text == "-" {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if lit, ok := x.(*Literal); ok {
			switch lit.Val.Type {
			case column.Int64:
				return &Literal{Val: column.NewInt64(-lit.Val.I)}, nil
			case column.Float64:
				return &Literal{Val: column.NewFloat64(-lit.Val.F)}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: column.NewFloat64(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &Literal{Val: column.NewInt64(n)}, nil

	case TokString:
		p.advance()
		return &Literal{Val: column.NewString(t.Text)}, nil

	case TokQuestion:
		p.advance()
		prm := &Param{Index: p.params}
		p.params++
		return prm, nil

	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.advance()
			return &Literal{Val: column.NewNull(column.Int64)}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: column.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: column.NewBool(false)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)

	case TokLParen:
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().Kind != TokRParen {
			return nil, p.errf("expected ')', found %q", p.peek().Text)
		}
		p.advance()
		return e, nil

	case TokIdent:
		name, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		// Function call?
		if p.peek().Kind == TokLParen && !strings.Contains(name, ".") {
			if err := p.nest(); err != nil {
				return nil, err
			}
			defer func() { p.depth-- }()
			fn := strings.ToUpper(name)
			p.advance() // (
			call := &Call{Func: fn}
			if p.peek().Kind == TokStar {
				p.advance()
				call.Star = true
			} else {
				if p.atKeyword("DISTINCT") {
					p.advance()
					call.Distinct = true
				}
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.peek().Kind == TokComma {
						p.advance()
						continue
					}
					break
				}
			}
			if p.peek().Kind != TokRParen {
				return nil, p.errf("expected ')' to close %s(, found %q", fn, p.peek().Text)
			}
			p.advance()
			if !aggregates[fn] {
				return nil, p.errf("unknown function %q", fn)
			}
			if call.Star && fn != "COUNT" {
				return nil, p.errf("%s(*) is not valid; only COUNT(*)", fn)
			}
			if !call.Star && len(call.Args) != 1 {
				return nil, p.errf("%s takes exactly one argument", fn)
			}
			return call, nil
		}
		return &ColumnRef{Name: name}, nil

	default:
		return nil, p.errf("unexpected %s %q in expression", t.Kind, t.Text)
	}
}

package sql

import (
	"fmt"
	"strings"

	"repro/internal/column"
)

// Expr is a node of an expression tree.
type Expr interface {
	// String renders the expression as SQL-like text (used in plan
	// displays and error messages).
	String() string
}

// ColumnRef references a column, optionally qualified ("F.station"). Name
// holds the full dotted text as written.
type ColumnRef struct {
	Name string
}

func (c *ColumnRef) String() string { return c.Name }

// Literal is a constant value.
type Literal struct {
	Val column.Value
}

func (l *Literal) String() string {
	if l.Val.Type == column.String {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// Param is a positional parameter marker ('?') in a prepared statement.
// Index is the zero-based occurrence order in the statement text. Params
// never reach planning or execution: BindParams substitutes Literals first.
type Param struct {
	Index int
}

func (p *Param) String() string { return "?" }

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	// OpLike matches a string against a SQL pattern ('%' any run, '_' any
	// single character).
	OpLike
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Comparison reports whether the operator is an ordering comparison
// (yields Bool from two ordered scalars). LIKE is boolean-valued but not an
// ordering comparison.
func (op BinaryOp) Comparison() bool { return op <= OpGe }

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Unary applies NOT or unary minus.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", u.X)
	}
	return fmt.Sprintf("(%s%s)", u.Op, u.X)
}

// IsNull tests a value for (non-)nullness: expr IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

func (n *IsNull) String() string {
	if n.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// Call is a function call; for this dialect, always an aggregate
// (AVG/MIN/MAX/SUM/COUNT). Star marks COUNT(*).
type Call struct {
	Func     string // upper-case
	Args     []Expr
	Star     bool
	Distinct bool
}

func (c *Call) String() string {
	if c.Star {
		return c.Func + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	d := ""
	if c.Distinct {
		d = "DISTINCT "
	}
	return c.Func + "(" + d + strings.Join(parts, ", ") + ")"
}

// IsAggregate reports whether the call is an aggregate function.
func (c *Call) IsAggregate() bool { return aggregates[c.Func] }

// SelectItem is one entry of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
	Star  bool   // SELECT *
}

func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// TableRef names a base table or view, optionally schema-qualified
// ("mseed.dataview") and aliased.
type TableRef struct {
	Name  string // full dotted name as written
	Alias string
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// JoinClause is one INNER JOIN ... ON ... following the base table.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr // nil if absent
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64 // -1 if absent
	// NumParams counts '?' parameter markers in the statement. Statements
	// with markers come from ParseTemplate and must be bound with
	// BindParams before planning.
	NumParams int
}

// String renders the statement back to SQL (normalized).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.From.String())
	for _, j := range s.Joins {
		sb.WriteString(" JOIN ")
		sb.WriteString(j.Table.String())
		sb.WriteString(" ON ")
		sb.WriteString(j.On.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// HasAggregates reports whether any select item contains an aggregate call.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Star {
			continue
		}
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *Unary:
		return exprHasAggregate(x.X)
	case *IsNull:
		return exprHasAggregate(x.X)
	}
	return false
}

// WalkColumnRefs calls fn for every column reference in the expression.
func WalkColumnRefs(e Expr, fn func(*ColumnRef)) {
	switch x := e.(type) {
	case *ColumnRef:
		fn(x)
	case *Binary:
		WalkColumnRefs(x.L, fn)
		WalkColumnRefs(x.R, fn)
	case *Unary:
		WalkColumnRefs(x.X, fn)
	case *IsNull:
		WalkColumnRefs(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			WalkColumnRefs(a, fn)
		}
	}
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list. A nil
// expression yields nil.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

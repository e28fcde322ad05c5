package exec

import (
	"fmt"

	"repro/internal/column"
	"repro/internal/sql"
)

// Eval evaluates an expression over every row of the batch, returning a
// column of len(batch) results. Comparison and boolean operators yield Bool
// columns. String literals compared against Timestamp columns are coerced
// by parsing them as timestamps (this is how the paper's queries filter
// sample_time with string literals).
func Eval(e sql.Expr, b *column.Batch) (*column.Column, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return broadcast(x.Val, b.NumRows()), nil

	case *sql.ColumnRef:
		c, ok := b.Col(x.Name)
		if !ok {
			return nil, fmt.Errorf("exec: unknown column %q (have %v)", x.Name, b.Names())
		}
		return c, nil

	case *sql.Unary:
		inner, err := Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		return evalUnary(x.Op, inner)

	case *sql.Binary:
		return evalBinary(x, b)

	case *sql.IsNull:
		inner, err := Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		out := make([]int64, inner.Len())
		nulls := inner.Nulls()
		if x.Not {
			if nulls == nil {
				for i := range out {
					out[i] = 1
				}
			} else {
				for i := range out {
					if !nulls[i] {
						out[i] = 1
					}
				}
			}
		} else if nulls != nil {
			for i := range out {
				if nulls[i] {
					out[i] = 1
				}
			}
		}
		return column.NewIntFamily("", column.Bool, out), nil

	case *sql.Call:
		return nil, fmt.Errorf("exec: aggregate %s outside of an aggregation context", x.Func)

	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

// operand is one side of a binary expression: either a column vector or a
// scalar constant. Literals stay scalar so the kernels can specialize on
// constants instead of broadcasting them into full-width columns.
type operand struct {
	col    *column.Column
	val    column.Value
	scalar bool
}

func (o operand) typ() column.Type {
	if o.scalar {
		return o.val.Type
	}
	return o.col.Type()
}

// evalOperand evaluates one side of a binary expression, keeping literal
// operands scalar.
func evalOperand(e sql.Expr, b *column.Batch) (operand, error) {
	if lit, ok := e.(*sql.Literal); ok {
		return operand{val: lit.Val, scalar: true}, nil
	}
	c, err := Eval(e, b)
	return operand{col: c}, err
}

// broadcast builds a constant column of n rows: one run of v, so nothing is
// allocated per row unless a reader asks for the raw vector (binary kernels
// keep constants scalar and never get here; SELECT 1 and NULL arithmetic
// do).
func broadcast(v column.Value, n int) *column.Column {
	one := column.New("", v.Type)
	if err := one.AppendValue(v); err != nil {
		panic(err) // a value always fits a column of its own type
	}
	return one.Repeat([]int32{0}, []int{n})
}

// copyNulls clones a null vector so kernel outputs never alias their
// operands' bitmaps.
func copyNulls(nulls []bool) []bool {
	if nulls == nil {
		return nil
	}
	out := make([]bool, len(nulls))
	copy(out, nulls)
	return out
}

func evalUnary(op string, in *column.Column) (*column.Column, error) {
	n := in.Len()
	switch op {
	case "NOT":
		if in.Type() != column.Bool {
			return nil, fmt.Errorf("exec: NOT over %v", in.Type())
		}
		ints := in.Int64s()
		out := make([]int64, n)
		nulls := copyNulls(in.Nulls())
		if nulls == nil {
			for i, v := range ints {
				if v == 0 {
					out[i] = 1
				}
			}
		} else {
			for i, v := range ints {
				if !nulls[i] && v == 0 {
					out[i] = 1
				}
			}
		}
		c := column.NewIntFamily("", column.Bool, out)
		c.SetNulls(nulls)
		return c, nil
	case "-":
		switch in.Type() {
		case column.Float64:
			fls := in.Float64s()
			out := make([]float64, n)
			nulls := copyNulls(in.Nulls())
			if nulls == nil {
				for i, v := range fls {
					out[i] = -v
				}
			} else {
				for i, v := range fls {
					if !nulls[i] {
						out[i] = -v
					}
				}
			}
			c := column.NewFloat64s("", out)
			c.SetNulls(nulls)
			return c, nil
		case column.Int64, column.Timestamp:
			ints := in.Int64s()
			out := make([]int64, n)
			nulls := copyNulls(in.Nulls())
			if nulls == nil {
				for i, v := range ints {
					out[i] = -v
				}
			} else {
				for i, v := range ints {
					if !nulls[i] {
						out[i] = -v
					}
				}
			}
			c := column.NewIntFamily("", column.Int64, out)
			c.SetNulls(nulls)
			return c, nil
		}
		return nil, fmt.Errorf("exec: unary minus over %v", in.Type())
	default:
		return nil, fmt.Errorf("exec: unknown unary operator %q", op)
	}
}

func evalBinary(x *sql.Binary, b *column.Batch) (*column.Column, error) {
	n := b.NumRows()
	switch x.Op {
	case sql.OpAnd, sql.OpOr:
		l, err := Eval(x.L, b)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, b)
		if err != nil {
			return nil, err
		}
		if l.Type() != column.Bool || r.Type() != column.Bool {
			return nil, fmt.Errorf("exec: %s over %v and %v", x.Op, l.Type(), r.Type())
		}
		out := make([]int64, n)
		li, ri := l.Int64s(), r.Int64s()
		ln, rn := l.Nulls(), r.Nulls()
		if x.Op == sql.OpAnd {
			if ln == nil && rn == nil {
				for i := range li {
					if li[i] != 0 && ri[i] != 0 {
						out[i] = 1
					}
				}
			} else {
				for i := range li {
					if (ln == nil || !ln[i]) && li[i] != 0 && (rn == nil || !rn[i]) && ri[i] != 0 {
						out[i] = 1
					}
				}
			}
		} else {
			if ln == nil && rn == nil {
				for i := range li {
					if li[i] != 0 || ri[i] != 0 {
						out[i] = 1
					}
				}
			} else {
				for i := range li {
					if ((ln == nil || !ln[i]) && li[i] != 0) || ((rn == nil || !rn[i]) && ri[i] != 0) {
						out[i] = 1
					}
				}
			}
		}
		return column.NewIntFamily("", column.Bool, out), nil
	}

	l, err := evalOperand(x.L, b)
	if err != nil {
		return nil, err
	}
	r, err := evalOperand(x.R, b)
	if err != nil {
		return nil, err
	}

	switch {
	case x.Op == sql.OpLike:
		return evalLikeOperands(l, r, n)
	case x.Op.Comparison():
		sel, err := evalCmpSel(x.Op, l, r, nil, n)
		if err != nil {
			return nil, fmt.Errorf("exec: %s: %w", x, err)
		}
		return selToBools(sel, n), nil
	default:
		c, err := evalArith(x.Op, l, r, n)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// coerceConst reconciles a constant operand with the column type it meets,
// mirroring coerce for the scalar case: a NULL takes the column's type,
// string constants against Timestamp columns parse as timestamps; numeric
// types mix freely.
func coerceConst(ct column.Type, v column.Value) (column.Value, error) {
	if v.Null {
		return column.NewNull(ct), nil
	}
	if ct == v.Type {
		return v, nil
	}
	if ct == column.Timestamp && v.Type == column.String {
		ns, err := column.ParseTimestamp(v.S)
		if err != nil {
			return v, err
		}
		return column.NewTimestamp(ns), nil
	}
	if ct.Numeric() && v.Type.Numeric() {
		return v, nil
	}
	return v, fmt.Errorf("cannot combine %v with %v", ct, v.Type)
}

// evalCmpSel evaluates a comparison over the candidate rows, dispatching to
// the constant-vs-column kernels when one side is a literal.
func evalCmpSel(op sql.BinaryOp, l, r operand, sel []int32, n int) ([]int32, error) {
	switch {
	case l.scalar && r.scalar:
		if l.val.Null || r.val.Null {
			return []int32{}, nil
		}
		c, err := column.Compare(l.val, r.val)
		if err != nil {
			return nil, err
		}
		if !cmpTruth(op, c) {
			return []int32{}, nil
		}
		if sel == nil {
			return selAll(n), nil
		}
		return sel, nil
	case r.scalar:
		return evalCmpConstSel(op, l.col, r.val, false, sel)
	case l.scalar:
		return evalCmpConstSel(op, r.col, l.val, true, sel)
	default:
		return evalCmpColsSel(op, l.col, r.col, sel)
	}
}

// evalCmpConstSel compares a column against a constant over the candidate
// rows. constLeft marks a constant left operand (c op col), handled by
// mirroring the operator.
func evalCmpConstSel(op sql.BinaryOp, c *column.Column, v column.Value, constLeft bool, sel []int32) ([]int32, error) {
	if constLeft {
		op = flipCmp(op)
	}
	v, err := coerceConst(c.Type(), v)
	if err != nil {
		return nil, err
	}
	if v.Null {
		return []int32{}, nil
	}
	cand := selNotNull(c.Nulls(), sel, c.Len())
	switch c.Type() {
	case column.String:
		return selCmpConst(op, c.Strings(), v.S, cand), nil
	case column.Float64:
		return selCmpConstFloats(op, c.Float64s(), v.AsFloat(), cand), nil
	default:
		if v.Type == column.Float64 {
			return selCmpConstFloats(op, asFloats(c), v.F, cand), nil
		}
		return selCmpConst(op, c.Int64s(), v.AsInt(), cand), nil
	}
}

// evalCmpColsSel compares two columns over the candidate rows.
func evalCmpColsSel(op sql.BinaryOp, l, r *column.Column, sel []int32) ([]int32, error) {
	l, r, err := coerce(l, r)
	if err != nil {
		return nil, err
	}
	cand := selNotNull(l.Nulls(), sel, l.Len())
	cand = selNotNull(r.Nulls(), cand, r.Len())
	switch {
	case l.Type() == column.String && r.Type() == column.String:
		return selCmpCols(op, l.Strings(), r.Strings(), cand), nil
	case hasFloat(l, r):
		return selCmpColsFloats(op, asFloats(l), asFloats(r), cand), nil
	default: // integer-family on both sides
		return selCmpCols(op, l.Int64s(), r.Int64s(), cand), nil
	}
}

// evalLikeOperands dispatches LIKE: a constant pattern (the common shape)
// runs the selection kernel; a column pattern falls back to evalLike.
func evalLikeOperands(l, r operand, n int) (*column.Column, error) {
	if l.typ() != column.String || r.typ() != column.String {
		return nil, fmt.Errorf("exec: LIKE needs strings, got %v and %v", l.typ(), r.typ())
	}
	if l.scalar {
		l = operand{col: broadcast(l.val, n)}
	}
	if r.scalar {
		if r.val.Null {
			return column.NewIntFamily("", column.Bool, make([]int64, n)), nil
		}
		cand := selNotNull(l.col.Nulls(), nil, n)
		return selToBools(selLikeConst(l.col.Strings(), r.val.S, cand), n), nil
	}
	return evalLike(l.col, r.col)
}

// evalLike matches strings against SQL LIKE patterns: '%' matches any run
// (including empty), '_' matches exactly one byte. Nulls yield false.
func evalLike(l, r *column.Column) (*column.Column, error) {
	if l.Type() != column.String || r.Type() != column.String {
		return nil, fmt.Errorf("exec: LIKE needs strings, got %v and %v", l.Type(), r.Type())
	}
	ls, rs := l.Strings(), r.Strings()
	out := make([]int64, len(ls))
	if l.Nulls() == nil && r.Nulls() == nil {
		for i := range ls {
			if matchLike(ls[i], rs[i]) {
				out[i] = 1
			}
		}
	} else {
		for i := range ls {
			if !l.IsNull(i) && !r.IsNull(i) && matchLike(ls[i], rs[i]) {
				out[i] = 1
			}
		}
	}
	return column.NewIntFamily("", column.Bool, out), nil
}

// matchLike implements LIKE with iterative backtracking over '%'.
func matchLike(s, pat string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			// Backtrack: let the last '%' absorb one more byte.
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// coerce reconciles operand types: a String column paired with a Timestamp
// column is parsed as timestamps; Int64 pairs with Float64 by promotion
// (handled inside the kernels via float conversion).
func coerce(l, r *column.Column) (*column.Column, *column.Column, error) {
	lt, rt := l.Type(), r.Type()
	if lt == rt {
		return l, r, nil
	}
	if lt == column.Timestamp && rt == column.String {
		rc, err := parseTimestampColumn(r)
		return l, rc, err
	}
	if lt == column.String && rt == column.Timestamp {
		lc, err := parseTimestampColumn(l)
		return lc, r, err
	}
	if lt.Numeric() && rt.Numeric() {
		return l, r, nil
	}
	return nil, nil, fmt.Errorf("cannot combine %v with %v", lt, rt)
}

func parseTimestampColumn(c *column.Column) (*column.Column, error) {
	strs := c.Strings()
	out := make([]int64, len(strs))
	nulls := copyNulls(c.Nulls())
	for i, s := range strs {
		if nulls != nil && nulls[i] {
			continue
		}
		ns, err := column.ParseTimestamp(s)
		if err != nil {
			return nil, err
		}
		out[i] = ns
	}
	oc := column.NewIntFamily(c.Name(), column.Timestamp, out)
	oc.SetNulls(nulls)
	return oc, nil
}

// hasFloat reports whether either column needs float comparison.
func hasFloat(l, r *column.Column) bool {
	return l.Type() == column.Float64 || r.Type() == column.Float64
}

// evalArith computes an arithmetic binary operator. Integer arithmetic
// stays integral except division, which is float (so averages like
// SUM(x)/COUNT(*) behave as users expect).
func evalArith(op sql.BinaryOp, l, r operand, n int) (*column.Column, error) {
	lt, rt := l.typ(), r.typ()
	if !lt.Numeric() || !rt.Numeric() {
		return nil, fmt.Errorf("exec: arithmetic over %v and %v", lt, rt)
	}
	if l.scalar && r.scalar {
		l = operand{col: broadcast(l.val, n)}
	}
	intResult := lt != column.Float64 && rt != column.Float64 && op != sql.OpDiv
	if (l.scalar && l.val.Null) || (r.scalar && r.val.Null) {
		if intResult {
			return broadcast(column.NewNull(column.Int64), n), nil
		}
		return broadcast(column.NewNull(column.Float64), n), nil
	}

	if intResult {
		var out []int64
		var nulls []bool
		switch {
		case l.scalar:
			out = arithConstInts(op, r.col.Int64s(), l.val.AsInt(), true)
			nulls = copyNulls(r.col.Nulls())
		case r.scalar:
			out = arithConstInts(op, l.col.Int64s(), r.val.AsInt(), false)
			nulls = copyNulls(l.col.Nulls())
		default:
			out = arithColsInts(op, l.col.Int64s(), r.col.Int64s())
			nulls = orNulls(l.col.Nulls(), r.col.Nulls(), n)
		}
		zeroNullPositionsInt(out, nulls)
		c := column.NewIntFamily("", column.Int64, out)
		c.SetNulls(nulls)
		return c, nil
	}

	var out []float64
	var nulls []bool
	switch {
	case l.scalar:
		out = arithConstFloats(op, asFloats(r.col), l.val.AsFloat(), true)
		nulls = copyNulls(r.col.Nulls())
	case r.scalar:
		out = arithConstFloats(op, asFloats(l.col), r.val.AsFloat(), false)
		nulls = copyNulls(l.col.Nulls())
	default:
		out = arithColsFloats(op, asFloats(l.col), asFloats(r.col))
		nulls = orNulls(l.col.Nulls(), r.col.Nulls(), n)
	}
	zeroNullPositionsFloat(out, nulls)
	c := column.NewFloat64s("", out)
	c.SetNulls(nulls)
	return c, nil
}

// evalPredSel evaluates e as a predicate over the candidate rows sel (nil =
// all rows), returning the ascending subset where e is true. Conjunctions
// chain the selection vector through both sides; disjunctions merge the two
// sides' selections; comparisons run the typed kernels directly. Anything
// without a specialized path evaluates to a full Bool column and keeps the
// true candidates, which preserves row-at-a-time semantics exactly.
func evalPredSel(e sql.Expr, b *column.Batch, sel []int32) ([]int32, error) {
	n := b.NumRows()
	switch x := e.(type) {
	case *sql.Binary:
		switch {
		case x.Op == sql.OpAnd:
			lsel, err := evalPredSel(x.L, b, sel)
			if err != nil || len(lsel) == 0 {
				return lsel, err
			}
			return evalPredSel(x.R, b, lsel)
		case x.Op == sql.OpOr:
			lsel, err := evalPredSel(x.L, b, sel)
			if err != nil {
				return nil, err
			}
			rsel, err := evalPredSel(x.R, b, sel)
			if err != nil {
				return nil, err
			}
			return selUnion(lsel, rsel), nil
		case x.Op.Comparison():
			l, err := evalOperand(x.L, b)
			if err != nil {
				return nil, err
			}
			r, err := evalOperand(x.R, b)
			if err != nil {
				return nil, err
			}
			out, err := evalCmpSel(x.Op, l, r, sel, n)
			if err != nil {
				return nil, fmt.Errorf("exec: %s: %w", x, err)
			}
			return out, nil
		case x.Op == sql.OpLike:
			l, err := evalOperand(x.L, b)
			if err != nil {
				return nil, err
			}
			r, err := evalOperand(x.R, b)
			if err != nil {
				return nil, err
			}
			if !l.scalar && r.scalar && l.typ() == column.String {
				if r.val.Type != column.String {
					return nil, fmt.Errorf("exec: LIKE needs strings, got %v and %v", l.typ(), r.typ())
				}
				if r.val.Null {
					return []int32{}, nil
				}
				cand := selNotNull(l.col.Nulls(), sel, n)
				return selLikeConst(l.col.Strings(), r.val.S, cand), nil
			}
			// Column pattern or scalar subject: generic fallback below.
		}
	case *sql.IsNull:
		inner, err := Eval(x.X, b)
		if err != nil {
			return nil, err
		}
		nulls := inner.Nulls()
		if x.Not && nulls == nil {
			if sel == nil {
				return selAll(n), nil
			}
			return sel, nil
		}
		out := make([]int32, 0, selLen(sel, n))
		if nulls == nil {
			return out, nil // no nulls anywhere: IS NULL selects nothing
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls[i] != x.Not {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, s := range sel {
				if nulls[s] != x.Not {
					out = append(out, s)
				}
			}
		}
		return out, nil
	}

	c, err := Eval(e, b)
	if err != nil {
		return nil, err
	}
	if c.Type() != column.Bool {
		return nil, fmt.Errorf("exec: predicate %s has type %v, want BOOLEAN", e, c.Type())
	}
	return selTrueRows(c.Int64s(), c.Nulls(), sel), nil
}

// Filter returns the batch restricted to rows satisfying all predicates.
// Predicates compose a single selection vector — each narrows the candidate
// rows of the next — and the batch is gathered once at the end (or returned
// untouched when every row passes).
func Filter(b *column.Batch, preds []sql.Expr) (*column.Batch, error) {
	if len(preds) == 0 {
		return b, nil
	}
	var sel []int32 // nil = all rows
	for _, p := range preds {
		s, err := evalPredSel(p, b, sel)
		if err != nil {
			return nil, err
		}
		sel = s
		if len(sel) == 0 {
			break
		}
	}
	if len(sel) == b.NumRows() {
		return b, nil
	}
	return b.Gather(sel), nil
}

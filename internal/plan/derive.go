package plan

import (
	"fmt"
	"math"
	"time"

	"repro/internal/column"
	"repro/internal/sql"
)

// deriveIntervalPreds infers sound metadata predicates from data predicates
// over D.sample_time. A record (or file) can only contain a sample with
// time t if its [start_time, end_time] interval covers t, so:
//
//	D.sample_time >  L  implies  R.end_time   >  L  and  F.end_time   >  L
//	D.sample_time >= L  implies  R.end_time   >= L  and  F.end_time   >= L
//	D.sample_time <  U  implies  R.start_time <  U  and  F.start_time <  U
//	D.sample_time <= U  implies  R.start_time <= U  and  F.start_time <= U
//	D.sample_time =  T  implies  both bounds
//
// Only conjuncts of the literal-vs-column shape participate, and only with a
// literal the exec kernels can compare with a timestamp (timeLiteral); a
// literal they reject stays on its own conjunct alone, so the error names
// what the user wrote and not a predicate derived from it. Anything else
// (ORs, arithmetic, column-vs-column) is left alone. The derived conjuncts
// are supersets of the qualifying set — they prune, never change results.
//
// CompileWindow is their exact companion inside a record: where these
// predicates decide which records can hold a qualifying sample, the window
// decides which samples of a qualifying record do, so that only the records
// at the window's edges are cut and none is filtered sample by sample.
//
// This generalizes the paper's demo queries, which carry explicit
// R.start_time predicates precisely because record pruning needs them; the
// derivation makes the pruning automatic.
func deriveIntervalPreds(dPreds []sql.Expr) (fPreds, rPreds []sql.Expr) {
	for _, p := range dPreds {
		b, ok := p.(*sql.Binary)
		if !ok {
			continue
		}
		ref, lit, op, ok := normalizeComparison(b)
		if !ok || ref.Name != "D.sample_time" {
			continue
		}
		if _, _, coerces := timeLiteral(lit.Val); !coerces {
			continue
		}
		add := func(col string, o sql.BinaryOp) {
			e := &sql.Binary{Op: o, L: &sql.ColumnRef{Name: col}, R: lit}
			if col == "F.start_time" || col == "F.end_time" {
				fPreds = append(fPreds, e)
			} else {
				rPreds = append(rPreds, e)
			}
		}
		switch op {
		case sql.OpGt, sql.OpGe:
			add("R.end_time", op)
			add("F.end_time", op)
		case sql.OpLt, sql.OpLe:
			add("R.start_time", op)
			add("F.start_time", op)
		case sql.OpEq:
			add("R.end_time", sql.OpGe)
			add("R.start_time", sql.OpLe)
			add("F.end_time", sql.OpGe)
			add("F.start_time", sql.OpLe)
		}
	}
	return fPreds, rPreds
}

// timeLiteral reads a literal the way the exec kernels read it against a
// TIMESTAMP column. coerces is false when that comparison fails (a string
// that does not parse, a BOOL). exact is true when it is an integer
// comparison against ns: a non-NULL integer or timestamp literal (ns since
// the epoch) or a string that parses. A float literal compares as a float
// and NULL selects nothing: both coerce, neither is exact.
func timeLiteral(v column.Value) (ns int64, exact, coerces bool) {
	switch v.Type {
	case column.String:
		if v.Null {
			return 0, false, true
		}
		ns, err := column.ParseTimestamp(v.S)
		return ns, err == nil, err == nil
	case column.Int64, column.Timestamp:
		return v.I, !v.Null, true
	case column.Float64:
		return 0, false, true
	}
	return 0, false, false
}

// SampleWindow is the inclusive range [Lo, Hi] of sample times (ns) that
// the lifted D.sample_time conjuncts Preds admit: a sample satisfies every
// one of them exactly when Lo <= its time <= Hi. Lo > Hi is the empty
// window. Like PruneRange it is compiled from literals, so a plan reused for
// other literal values must compile it again.
type SampleWindow struct {
	Lo, Hi int64
	Preds  []sql.Expr
}

// CompileWindow lifts the conjuncts of dPreds that compare D.sample_time
// with an exact time literal (timeLiteral) under <, <=, >, >= or = — a
// BETWEEN arrives as two of them — into one SampleWindow, and returns the
// conjuncts it did not lift. Float, NULL and unparseable literals, <>, and
// anything under OR or NOT stay in rest. w is nil when nothing was lifted.
func CompileWindow(dPreds []sql.Expr) (w *SampleWindow, rest []sql.Expr) {
	win := &SampleWindow{Lo: math.MinInt64, Hi: math.MaxInt64}
	for _, p := range dPreds {
		if win.fold(p) {
			win.Preds = append(win.Preds, p)
		} else {
			rest = append(rest, p)
		}
	}
	if len(win.Preds) == 0 {
		return nil, dPreds
	}
	return win, rest
}

// fold narrows the window by one conjunct, reporting whether it could.
func (w *SampleWindow) fold(p sql.Expr) bool {
	b, ok := p.(*sql.Binary)
	if !ok {
		return false
	}
	ref, lit, op, ok := normalizeComparison(b)
	if !ok || ref.Name != "D.sample_time" {
		return false
	}
	ns, exact, _ := timeLiteral(lit.Val)
	if !exact {
		return false
	}
	switch op {
	case sql.OpGe:
		w.Lo = max(w.Lo, ns)
	case sql.OpLe:
		w.Hi = min(w.Hi, ns)
	case sql.OpEq:
		w.Lo, w.Hi = max(w.Lo, ns), min(w.Hi, ns)
	case sql.OpGt:
		if ns == math.MaxInt64 {
			w.Lo, w.Hi = math.MaxInt64, math.MinInt64 // no time is greater
		} else {
			w.Lo = max(w.Lo, ns+1)
		}
	case sql.OpLt:
		if ns == math.MinInt64 {
			w.Lo, w.Hi = math.MaxInt64, math.MinInt64 // no time is smaller
		} else {
			w.Hi = min(w.Hi, ns-1)
		}
	default:
		return false
	}
	return true
}

// String renders the window for plan display, in UTC to the nanosecond.
func (w *SampleWindow) String() string {
	if w.Lo > w.Hi {
		return "empty"
	}
	lo, hi := "-inf", "+inf"
	if w.Lo != math.MinInt64 {
		lo = windowBound(w.Lo)
	}
	if w.Hi != math.MaxInt64 {
		hi = windowBound(w.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

func windowBound(ns int64) string {
	return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.999999999")
}

// normalizeComparison reduces a binary comparison to (columnRef, literal,
// op) with the column on the left, flipping the operator when the literal
// was on the left. ok is false for any other shape.
func normalizeComparison(b *sql.Binary) (*sql.ColumnRef, *sql.Literal, sql.BinaryOp, bool) {
	if !b.Op.Comparison() {
		return nil, nil, 0, false
	}
	if ref, okL := b.L.(*sql.ColumnRef); okL {
		if lit, okR := b.R.(*sql.Literal); okR {
			return ref, lit, b.Op, true
		}
	}
	if lit, okL := b.L.(*sql.Literal); okL {
		if ref, okR := b.R.(*sql.ColumnRef); okR {
			var flipped sql.BinaryOp
			switch b.Op {
			case sql.OpLt:
				flipped = sql.OpGt
			case sql.OpLe:
				flipped = sql.OpGe
			case sql.OpGt:
				flipped = sql.OpLt
			case sql.OpGe:
				flipped = sql.OpLe
			default:
				flipped = b.Op // = and <> are symmetric
			}
			return ref, lit, flipped, true
		}
	}
	return nil, nil, 0, false
}

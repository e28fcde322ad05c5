package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// ---------------------------------------------------------------------------
// Row-at-a-time oracle: a deliberately naive Value-boxing interpreter with
// the engine's SQL semantics (comparisons over null operands are false,
// AND/OR treat null as false, aggregates skip nulls). The vectorized
// kernels are checked against it on randomized batches.
// ---------------------------------------------------------------------------

func oracleEval(t *testing.T, e sql.Expr, b *column.Batch, row int) column.Value {
	t.Helper()
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val
	case *sql.ColumnRef:
		c, ok := b.Col(x.Name)
		if !ok {
			t.Fatalf("oracle: unknown column %q", x.Name)
		}
		return c.Value(row)
	case *sql.Unary:
		v := oracleEval(t, x.X, b, row)
		if v.Null {
			return column.NewNull(v.Type)
		}
		if x.Op == "NOT" {
			return column.NewBool(v.I == 0)
		}
		if v.Type == column.Float64 {
			return column.NewFloat64(-v.F)
		}
		return column.NewInt64(-v.I)
	case *sql.IsNull:
		v := oracleEval(t, x.X, b, row)
		return column.NewBool(v.Null != x.Not)
	case *sql.Binary:
		switch x.Op {
		case sql.OpAnd, sql.OpOr:
			l := oracleEval(t, x.L, b, row)
			r := oracleEval(t, x.R, b, row)
			lv, rv := asBool(l), asBool(r)
			if x.Op == sql.OpAnd {
				return column.NewBool(lv && rv)
			}
			return column.NewBool(lv || rv)
		case sql.OpLike:
			l := oracleEval(t, x.L, b, row)
			r := oracleEval(t, x.R, b, row)
			return column.NewBool(!l.Null && !r.Null && matchLike(l.S, r.S))
		}
		l := oracleEval(t, x.L, b, row)
		r := oracleEval(t, x.R, b, row)
		if x.Op.Comparison() {
			if l.Null || r.Null {
				return column.NewBool(false)
			}
			l, r = oracleCoerce(t, l, r)
			c, err := column.Compare(l, r)
			if err != nil {
				t.Fatalf("oracle: compare: %v", err)
			}
			return column.NewBool(cmpTruth(x.Op, c))
		}
		// Arithmetic.
		intResult := l.Type != column.Float64 && r.Type != column.Float64 && x.Op != sql.OpDiv
		if l.Null || r.Null {
			if intResult {
				return column.NewNull(column.Int64)
			}
			return column.NewNull(column.Float64)
		}
		if intResult {
			switch x.Op {
			case sql.OpAdd:
				return column.NewInt64(l.I + r.I)
			case sql.OpSub:
				return column.NewInt64(l.I - r.I)
			default:
				return column.NewInt64(l.I * r.I)
			}
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case sql.OpAdd:
			return column.NewFloat64(lf + rf)
		case sql.OpSub:
			return column.NewFloat64(lf - rf)
		case sql.OpMul:
			return column.NewFloat64(lf * rf)
		default:
			if rf == 0 {
				return column.NewFloat64(math.NaN())
			}
			return column.NewFloat64(lf / rf)
		}
	}
	t.Fatalf("oracle: unsupported expression %T", e)
	return column.Value{}
}

func oracleCoerce(t *testing.T, l, r column.Value) (column.Value, column.Value) {
	t.Helper()
	parse := func(v column.Value) column.Value {
		ns, err := column.ParseTimestamp(v.S)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		return column.NewTimestamp(ns)
	}
	if l.Type == column.Timestamp && r.Type == column.String {
		return l, parse(r)
	}
	if l.Type == column.String && r.Type == column.Timestamp {
		return parse(l), r
	}
	return l, r
}

// oracleFilter returns the rows where every predicate is true.
func oracleFilter(t *testing.T, b *column.Batch, preds []sql.Expr) []int32 {
	t.Helper()
	sel := []int32{}
	for row := 0; row < b.NumRows(); row++ {
		keep := true
		for _, p := range preds {
			if !asBool(oracleEval(t, p, b, row)) {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, int32(row))
		}
	}
	return sel
}

// ---------------------------------------------------------------------------
// Null handling in every comparison operator
// ---------------------------------------------------------------------------

var allCmpOps = []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

// nullsBatch builds columns of every type family with nulls at fixed
// positions (rows 1 and 4 of 6).
func nullsBatch() *column.Batch {
	ic := column.New("i", column.Int64)
	fc := column.New("f", column.Float64)
	sc := column.New("s", column.String)
	i2 := column.New("i2", column.Int64)
	for row := 0; row < 6; row++ {
		if row == 1 || row == 4 {
			ic.AppendNull()
			fc.AppendNull()
			sc.AppendNull()
		} else {
			ic.AppendInt64(int64(row))
			fc.AppendFloat64(float64(row) / 2)
			sc.AppendString(string(rune('a' + row)))
		}
		if row == 2 {
			i2.AppendNull()
		} else {
			i2.AppendInt64(3)
		}
	}
	return column.MustNewBatch(ic, fc, sc, i2)
}

func TestComparisonNullHandlingEveryOp(t *testing.T) {
	b := nullsBatch()
	cases := []struct {
		name string
		l, r sql.Expr
	}{
		{"int-const", &sql.ColumnRef{Name: "i"}, &sql.Literal{Val: column.NewInt64(3)}},
		{"const-int", &sql.Literal{Val: column.NewInt64(3)}, &sql.ColumnRef{Name: "i"}},
		{"float-const", &sql.ColumnRef{Name: "f"}, &sql.Literal{Val: column.NewFloat64(1)}},
		{"int-floatconst", &sql.ColumnRef{Name: "i"}, &sql.Literal{Val: column.NewFloat64(2.5)}},
		{"string-const", &sql.ColumnRef{Name: "s"}, &sql.Literal{Val: column.NewString("c")}},
		{"col-col", &sql.ColumnRef{Name: "i"}, &sql.ColumnRef{Name: "i2"}},
		{"col-col-mixed", &sql.ColumnRef{Name: "f"}, &sql.ColumnRef{Name: "i2"}},
		{"null-const", &sql.ColumnRef{Name: "i"}, &sql.Literal{Val: column.NewNull(column.Int64)}},
	}
	for _, tc := range cases {
		for _, op := range allCmpOps {
			e := &sql.Binary{Op: op, L: tc.l, R: tc.r}
			t.Run(fmt.Sprintf("%s/%s", tc.name, op), func(t *testing.T) {
				got, err := evalPredSel(e, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleFilter(t, b, []sql.Expr{e})
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("evalPredSel(%s) = %v, oracle says %v", e, got, want)
				}
				// A null operand must never be selected, whatever the op.
				for _, s := range got {
					for _, c := range []string{"i", "f", "s", "i2"} {
						col, _ := b.Col(c)
						if usesColumn(e, c) && col.IsNull(int(s)) {
							t.Fatalf("row %d selected despite null %s", s, c)
						}
					}
				}
			})
		}
	}
}

func usesColumn(e sql.Expr, name string) bool {
	switch x := e.(type) {
	case *sql.ColumnRef:
		return x.Name == name
	case *sql.Binary:
		return usesColumn(x.L, name) || usesColumn(x.R, name)
	case *sql.Unary:
		return usesColumn(x.X, name)
	case *sql.IsNull:
		return usesColumn(x.X, name)
	}
	return false
}

// ---------------------------------------------------------------------------
// Selection-vector composition
// ---------------------------------------------------------------------------

func TestSelUnion(t *testing.T) {
	got := selUnion([]int32{1, 3, 5}, []int32{2, 3, 6})
	want := []int32{1, 2, 3, 5, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selUnion = %v, want %v", got, want)
	}
	if out := selUnion(nil, []int32{0, 2}); fmt.Sprint(out) != fmt.Sprint([]int32{0, 2}) {
		t.Fatalf("selUnion with empty side = %v", out)
	}
}

func TestSelNotNull(t *testing.T) {
	nulls := []bool{false, true, false, true, false}
	if got := selNotNull(nulls, nil, 5); fmt.Sprint(got) != fmt.Sprint([]int32{0, 2, 4}) {
		t.Fatalf("selNotNull full = %v", got)
	}
	if got := selNotNull(nulls, []int32{1, 2, 3}, 5); fmt.Sprint(got) != fmt.Sprint([]int32{2}) {
		t.Fatalf("selNotNull sel = %v", got)
	}
	sel := []int32{0, 3}
	if got := selNotNull(nil, sel, 5); fmt.Sprint(got) != fmt.Sprint(sel) {
		t.Fatal("nil nulls must return sel unchanged")
	}
}

// TestSelectionComposition checks that chaining predicates through
// evalPredSel narrows candidates exactly like intersecting independent
// evaluations, and that OR merges stay sorted and deduplicated.
func TestSelectionComposition(t *testing.T) {
	b := benchBatch(1000)
	p1 := mustExpr(t, "v > 0")
	p2 := mustExpr(t, "file_id < 32")
	p3 := mustExpr(t, "station = 'ISK' OR station = 'HGN'")

	s1, err := evalPredSel(p1, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	s12, err := evalPredSel(p2, b, s1)
	if err != nil {
		t.Fatal(err)
	}
	// Independent evaluation then intersection.
	s2, err := evalPredSel(p2, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	inSet := make(map[int32]bool, len(s2))
	for _, s := range s2 {
		inSet[s] = true
	}
	var want []int32
	for _, s := range s1 {
		if inSet[s] {
			want = append(want, s)
		}
	}
	if fmt.Sprint(s12) != fmt.Sprint(want) {
		t.Fatalf("composed sel %v != intersection %v", s12, want)
	}

	s123, err := evalPredSel(p3, b, s12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s123); i++ {
		if s123[i] <= s123[i-1] {
			t.Fatalf("OR result not strictly ascending at %d: %v", i, s123[i-1:i+1])
		}
	}
	// The composed pipeline must agree with Filter over all three.
	fb, err := Filter(b, []sql.Expr{p1, p2, p3})
	if err != nil {
		t.Fatal(err)
	}
	if fb.NumRows() != len(s123) {
		t.Fatalf("Filter rows %d != composed sel %d", fb.NumRows(), len(s123))
	}
}

func TestFilterAllRowsPassReturnsInput(t *testing.T) {
	b := benchBatch(100)
	out, err := Filter(b, []sql.Expr{mustExpr(t, "file_id >= 0")})
	if err != nil {
		t.Fatal(err)
	}
	if out != b {
		t.Fatal("Filter should return the input batch unchanged when every row passes")
	}
}

func TestLimitSharesVectors(t *testing.T) {
	c := column.New("x", column.Int64)
	c.AppendInt64(1)
	c.AppendNull()
	c.AppendInt64(3)
	b := column.MustNewBatch(c)
	out := Limit(b, 2)
	if out.NumRows() != 2 {
		t.Fatalf("Limit rows = %d", out.NumRows())
	}
	oc, _ := out.Col("x")
	if oc.Value(0).I != 1 || !oc.IsNull(1) {
		t.Fatalf("Limit prefix mismatch: %v, null=%v", oc.Value(0), oc.IsNull(1))
	}
	if &oc.Int64s()[0] != &c.Int64s()[0] {
		t.Fatal("Limit must share the underlying vector, not copy it")
	}
	if Limit(b, 5) != b {
		t.Fatal("Limit larger than batch must return the batch itself")
	}
}

// ---------------------------------------------------------------------------
// Property test: vectorized Filter and Aggregate vs the oracle on random
// batches with nulls.
// ---------------------------------------------------------------------------

// randNullBatch builds a batch with every type family and ~15% nulls.
func randNullBatch(rng *rand.Rand, n int) *column.Batch {
	id := column.New("id", column.Int64)
	id2 := column.New("id2", column.Int64)
	v := column.New("v", column.Float64)
	s := column.New("s", column.String)
	ts := column.New("ts", column.Timestamp)
	words := []string{"alpha", "beta", "gamma", "", "a%b", "a_b"}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			id.AppendNull()
		} else {
			id.AppendInt64(rng.Int63n(7) - 3)
		}
		id2.AppendInt64(rng.Int63n(7) - 3)
		switch {
		case rng.Float64() < 0.15:
			v.AppendNull()
		case rng.Float64() < 0.08:
			// NaN compares "equal" to everything under the engine's
			// three-way convention; keep the kernels honest about it.
			v.AppendFloat64(math.NaN())
		default:
			v.AppendFloat64(float64(rng.Intn(9))/2 - 2)
		}
		if rng.Float64() < 0.15 {
			s.AppendNull()
		} else {
			s.AppendString(words[rng.Intn(len(words))])
		}
		ts.AppendInt64(rng.Int63n(5) * 1_000_000_000)
	}
	return column.MustNewBatch(id, id2, v, s, ts)
}

func randPredExpr(rng *rand.Rand, depth int) sql.Expr {
	op := allCmpOps[rng.Intn(len(allCmpOps))]
	max := 10
	if depth <= 0 {
		max = 7 // leaves only
	}
	switch rng.Intn(max) {
	case 0:
		return &sql.Binary{Op: op, L: &sql.ColumnRef{Name: "id"}, R: &sql.Literal{Val: column.NewInt64(rng.Int63n(7) - 3)}}
	case 1:
		return &sql.Binary{Op: op, L: &sql.Literal{Val: column.NewFloat64(float64(rng.Intn(9))/2 - 2)}, R: &sql.ColumnRef{Name: "v"}}
	case 2:
		return &sql.Binary{Op: op, L: &sql.ColumnRef{Name: "s"}, R: &sql.Literal{Val: column.NewString("beta")}}
	case 3:
		return &sql.Binary{Op: op, L: &sql.ColumnRef{Name: "ts"}, R: &sql.Literal{Val: column.NewString("1970-01-01 00:00:02")}}
	case 4:
		return &sql.Binary{Op: op, L: &sql.ColumnRef{Name: "id"}, R: &sql.ColumnRef{Name: "id2"}}
	case 5:
		pats := []string{"%a%", "a_b", "be%", "%"}
		return &sql.Binary{Op: sql.OpLike, L: &sql.ColumnRef{Name: "s"}, R: &sql.Literal{Val: column.NewString(pats[rng.Intn(len(pats))])}}
	case 6:
		cols := []string{"id", "v", "s", "ts"}
		return &sql.IsNull{X: &sql.ColumnRef{Name: cols[rng.Intn(len(cols))]}, Not: rng.Intn(2) == 0}
	case 7:
		return &sql.Binary{Op: sql.OpAnd, L: randPredExpr(rng, depth-1), R: randPredExpr(rng, depth-1)}
	case 8:
		return &sql.Binary{Op: sql.OpOr, L: randPredExpr(rng, depth-1), R: randPredExpr(rng, depth-1)}
	default:
		return &sql.Unary{Op: "NOT", X: randPredExpr(rng, depth-1)}
	}
}

func batchesEqual(a, b *column.Batch) (string, bool) {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols()), false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			av, bv := a.ColAt(c).Value(r), b.ColAt(c).Value(r)
			if av.String() != bv.String() {
				return fmt.Sprintf("row %d col %s: %v vs %v", r, a.ColAt(c).Name(), av, bv), false
			}
		}
	}
	return "", true
}

// pipeFilter runs preds the way production does: a FilterStage over b's
// morsels into a CollectSink, driven by p.
func pipeFilter(p *Pool, b *column.Batch, preds []sql.Expr) (*column.Batch, error) {
	sink := NewCollectSink(b.Range(0, 0))
	if _, err := p.RunPipeline(context.Background(), NewBatchMorsels(b, p.MorselRows()), []PipeStage{NewFilterStage(preds)}, sink); err != nil {
		return nil, err
	}
	return sink.Finish()
}

// pipeAggregate runs the aggregation the way production does: b's morsels
// folded into an AggSink (reserving from qm's ledger), driven by p.
func pipeAggregate(p *Pool, qm *QueryMem, b *column.Batch, groupBy []sql.Expr, aggs []AggSpec) (*column.Batch, error) {
	sink, err := NewAggSink(b.Range(0, 0), groupBy, aggs, qm)
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	if _, err := p.RunPipeline(context.Background(), NewBatchMorsels(b, p.MorselRows()), nil, sink); err != nil {
		return nil, err
	}
	return sink.Finish()
}

// testEngines is the execution matrix every oracle test runs against: the
// serial reference plus morsel-driven pools across worker counts {1, 2, 8}
// and small odd morsel sizes (7, 13, 61) that split null runs and 8/64-row
// bitmap word boundaries mid-word. A nil pool drives pipelines and the
// breaker operators serially through the same nil-safe method calls.
func testEngines() []struct {
	name string
	pool *Pool
} {
	return []struct {
		name string
		pool *Pool
	}{
		{"serial", nil},
		{"workers=1", NewPool(1)},
		{"workers=2,morsel=7", &Pool{workers: 2, morsel: 7}},
		{"workers=2,morsel=13", &Pool{workers: 2, morsel: 13}},
		{"workers=2,morsel=61", &Pool{workers: 2, morsel: 61}},
		{"workers=8,morsel=7", &Pool{workers: 8, morsel: 7}},
		{"workers=8,morsel=13", &Pool{workers: 8, morsel: 13}},
		{"workers=8,morsel=61", &Pool{workers: 8, morsel: 61}},
	}
}

// bitIdenticalBatches compares two batches down to raw vector contents:
// names, types, null positions, and values compared as int64 bits, float
// bits (math.Float64bits, so NaN payloads and signed zeros must agree) and
// exact strings. This is the "parallel output is bit-identical to serial"
// guarantee, stronger than the stringly batchesEqual used against oracles.
func bitIdenticalBatches(a, b *column.Batch) (string, bool) {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols()), false
	}
	for c := 0; c < a.NumCols(); c++ {
		ac, bc := a.ColAt(c), b.ColAt(c)
		if ac.Name() != bc.Name() || ac.Type() != bc.Type() {
			return fmt.Sprintf("col %d: %s %v vs %s %v", c, ac.Name(), ac.Type(), bc.Name(), bc.Type()), false
		}
		for r := 0; r < a.NumRows(); r++ {
			if ac.IsNull(r) != bc.IsNull(r) {
				return fmt.Sprintf("col %s row %d: null %v vs %v", ac.Name(), r, ac.IsNull(r), bc.IsNull(r)), false
			}
			if ac.IsNull(r) {
				continue
			}
			switch ac.Type() {
			case column.Float64:
				av, bv := ac.Float64s()[r], bc.Float64s()[r]
				if math.Float64bits(av) != math.Float64bits(bv) {
					return fmt.Sprintf("col %s row %d: %x vs %x", ac.Name(), r, math.Float64bits(av), math.Float64bits(bv)), false
				}
			case column.String:
				if ac.Strings()[r] != bc.Strings()[r] {
					return fmt.Sprintf("col %s row %d: %q vs %q", ac.Name(), r, ac.Strings()[r], bc.Strings()[r]), false
				}
			default:
				if ac.Int64s()[r] != bc.Int64s()[r] {
					return fmt.Sprintf("col %s row %d: %d vs %d", ac.Name(), r, ac.Int64s()[r], bc.Int64s()[r]), false
				}
			}
		}
	}
	return "", true
}

func TestFilterMatchesOracleOnRandomBatches(t *testing.T) {
	for _, eng := range testEngines() {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for iter := 0; iter < 200; iter++ {
				n := rng.Intn(120)
				b := randNullBatch(rng, n)
				preds := make([]sql.Expr, 1+rng.Intn(3))
				for i := range preds {
					preds[i] = randPredExpr(rng, 2)
				}
				got, err := pipeFilter(eng.pool, b, preds)
				if err != nil {
					t.Fatalf("iter %d: Filter(%v): %v", iter, preds, err)
				}
				want := b.Gather(oracleFilter(t, b, preds))
				if diff, ok := batchesEqual(got, want); !ok {
					t.Fatalf("iter %d: Filter(%v) diverges from oracle: %s", iter, preds, diff)
				}
				serial, err := Filter(b, preds)
				if err != nil {
					t.Fatalf("iter %d: serial Filter(%v): %v", iter, preds, err)
				}
				if diff, ok := bitIdenticalBatches(got, serial); !ok {
					t.Fatalf("iter %d: Filter(%v) not bit-identical to serial: %s", iter, preds, diff)
				}
			}
		})
	}
}

// oracleAggregate reimplements grouping the naive way: string-encoded group
// keys and boxed Value accumulators.
func oracleAggregate(t *testing.T, b *column.Batch, groupBy []sql.Expr, aggs []AggSpec) [][]string {
	t.Helper()
	type ostate struct {
		count  int64
		sum    float64
		intSum int64
		min    column.Value
		max    column.Value
		seen   map[string]bool
		any    bool
	}
	type ogroup struct {
		firstRow int
		states   []*ostate
	}
	groups := map[string]*ogroup{}
	var order []string
	n := b.NumRows()
	for row := 0; row < n; row++ {
		var sb strings.Builder
		for _, g := range groupBy {
			v := oracleEval(t, g, b, row)
			if v.Null {
				sb.WriteString("\x00N")
			} else {
				sb.WriteString(v.String())
			}
			sb.WriteByte(0)
		}
		k := sb.String()
		og, ok := groups[k]
		if !ok {
			og = &ogroup{firstRow: row, states: make([]*ostate, len(aggs))}
			for i := range aggs {
				og.states[i] = &ostate{}
			}
			groups[k] = og
			order = append(order, k)
		}
		for i, spec := range aggs {
			st := og.states[i]
			if spec.Star {
				st.count++
				continue
			}
			v := oracleEval(t, spec.Arg, b, row)
			if v.Null {
				continue
			}
			if spec.Distinct {
				if st.seen == nil {
					st.seen = map[string]bool{}
				}
				if st.seen[v.String()] {
					continue
				}
				st.seen[v.String()] = true
			}
			st.count++
			switch v.Type {
			case column.Float64:
				st.sum += v.F
			case column.String:
			default:
				st.intSum += v.I
				st.sum += float64(v.I)
			}
			if !st.any {
				st.min, st.max = v, v
				st.any = true
			} else {
				if c, err := column.Compare(v, st.min); err == nil && c < 0 {
					st.min = v
				}
				if c, err := column.Compare(v, st.max); err == nil && c > 0 {
					st.max = v
				}
			}
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		og := &ogroup{firstRow: -1, states: make([]*ostate, len(aggs))}
		for i := range aggs {
			og.states[i] = &ostate{}
		}
		groups[""] = og
		order = append(order, "")
	}
	var rows [][]string
	for _, k := range order {
		og := groups[k]
		var cells []string
		for _, g := range groupBy {
			cells = append(cells, oracleEval(t, g, b, og.firstRow).String())
		}
		for i, spec := range aggs {
			st := og.states[i]
			switch spec.Func {
			case "COUNT":
				cells = append(cells, column.NewInt64(st.count).String())
			case "AVG":
				if st.count == 0 {
					cells = append(cells, "NULL")
				} else {
					cells = append(cells, column.NewFloat64(st.sum/float64(st.count)).String())
				}
			case "SUM":
				if st.count == 0 {
					cells = append(cells, "NULL")
				} else if st.any && st.min.Type == column.Float64 {
					cells = append(cells, column.NewFloat64(st.sum).String())
				} else {
					cells = append(cells, column.NewInt64(st.intSum).String())
				}
			case "MIN":
				if !st.any {
					cells = append(cells, "NULL")
				} else {
					cells = append(cells, st.min.String())
				}
			case "MAX":
				if !st.any {
					cells = append(cells, "NULL")
				} else {
					cells = append(cells, st.max.String())
				}
			}
		}
		rows = append(rows, cells)
	}
	return rows
}

func TestAggregateMatchesOracleOnRandomBatches(t *testing.T) {
	groupings := [][]sql.Expr{
		nil, // global aggregate
		{&sql.ColumnRef{Name: "id"}},
		{&sql.ColumnRef{Name: "s"}},
		{&sql.ColumnRef{Name: "ts"}},
		{&sql.ColumnRef{Name: "id"}, &sql.ColumnRef{Name: "s"}},
		{&sql.ColumnRef{Name: "id"}, &sql.ColumnRef{Name: "id2"}},
		{&sql.ColumnRef{Name: "v"}},
	}
	for _, eng := range testEngines() {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for iter := 0; iter < 120; iter++ {
				n := rng.Intn(100)
				b := randNullBatch(rng, n)
				groupBy := groupings[rng.Intn(len(groupings))]
				aggs := []AggSpec{
					{Func: "COUNT", Star: true, OutName: "cnt"},
					{Func: "SUM", Arg: &sql.ColumnRef{Name: "id2"}, OutName: "sum_id2"},
					{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "avg_v"},
					{Func: "MIN", Arg: &sql.ColumnRef{Name: "s"}, OutName: "min_s"},
					{Func: "MAX", Arg: &sql.ColumnRef{Name: "ts"}, OutName: "max_ts"},
					{Func: "COUNT", Arg: &sql.ColumnRef{Name: "id"}, Distinct: true, OutName: "cd_id"},
					{Func: "COUNT", Arg: &sql.ColumnRef{Name: "v"}, Distinct: true, OutName: "cd_v"},
				}
				got, err := pipeAggregate(eng.pool, nil, b, groupBy, aggs)
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				want := oracleAggregate(t, b, groupBy, aggs)
				if got.NumRows() != len(want) {
					t.Fatalf("iter %d (groupBy=%v): %d groups, oracle has %d", iter, groupBy, got.NumRows(), len(want))
				}
				for r := 0; r < got.NumRows(); r++ {
					for c := 0; c < got.NumCols(); c++ {
						if gv := got.ColAt(c).Value(r).String(); gv != want[r][c] {
							t.Fatalf("iter %d (groupBy=%v): row %d col %s = %s, oracle says %s",
								iter, groupBy, r, got.ColAt(c).Name(), gv, want[r][c])
						}
					}
				}
				serial, err := Aggregate(b, groupBy, aggs)
				if err != nil {
					t.Fatalf("iter %d: serial Aggregate: %v", iter, err)
				}
				if diff, ok := bitIdenticalBatches(got, serial); !ok {
					t.Fatalf("iter %d (groupBy=%v): Aggregate not bit-identical to serial: %s", iter, groupBy, diff)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Oracle-checked HashJoin: a naive nested-loop join over boxed values, the
// row-at-a-time reference the hash paths (int-packed and byte-encoded) are
// checked against on randomized batches, across both engines.
// ---------------------------------------------------------------------------

// randJoinRight builds a right-side batch whose key columns draw from the
// same small domains as randNullBatch's, so joins hit all multiplicities
// (no match, one match, many matches).
func randJoinRight(rng *rand.Rand, n int) *column.Batch {
	rid := column.New("rid", column.Int64)
	rid2 := column.New("rid2", column.Int64)
	rs := column.New("rs", column.String)
	rts := column.New("rts", column.Timestamp)
	rv := column.New("rv", column.Float64)
	words := []string{"alpha", "beta", "gamma", "", "a%b", "a_b"}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			rid.AppendNull()
		} else {
			rid.AppendInt64(rng.Int63n(7) - 3)
		}
		rid2.AppendInt64(rng.Int63n(7) - 3)
		if rng.Float64() < 0.15 {
			rs.AppendNull()
		} else {
			rs.AppendString(words[rng.Intn(len(words))])
		}
		rts.AppendInt64(rng.Int63n(5) * 1_000_000_000)
		if rng.Float64() < 0.15 {
			rv.AppendNull()
		} else {
			rv.AppendFloat64(float64(rng.Intn(9)) / 2)
		}
	}
	return column.MustNewBatch(rid, rid2, rs, rts, rv)
}

// oracleJoinSel computes the inner equi-join match pairs by brute force:
// left rows in order, right matches in right-row order, null keys never
// matching — exactly the serial HashJoin's output order contract.
func oracleJoinSel(t *testing.T, left, right *column.Batch, lk, rk []string) (lsel, rsel []int32) {
	t.Helper()
	lkc, err := keyColumns(left, lk)
	if err != nil {
		t.Fatal(err)
	}
	rkc, err := keyColumns(right, rk)
	if err != nil {
		t.Fatal(err)
	}
	lsel, rsel = []int32{}, []int32{}
	for li := 0; li < left.NumRows(); li++ {
		if nullKey(lkc, li) {
			continue
		}
		for ri := 0; ri < right.NumRows(); ri++ {
			if nullKey(rkc, ri) {
				continue
			}
			match := true
			for j := range lkc {
				c, err := column.Compare(lkc[j].Value(li), rkc[j].Value(ri))
				if err != nil || c != 0 {
					match = false
					break
				}
			}
			if match {
				lsel = append(lsel, int32(li))
				rsel = append(rsel, int32(ri))
			}
		}
	}
	return lsel, rsel
}

// oracleJoinBatch assembles the expected join output from the match pairs
// using only Batch.Gather: left columns, then right columns minus the right
// keys.
func oracleJoinBatch(t *testing.T, left, right *column.Batch, rk []string, lsel, rsel []int32) *column.Batch {
	t.Helper()
	out := left.Gather(lsel)
	rightOut := right.Gather(rsel)
	drop := make(map[string]bool, len(rk))
	for _, k := range rk {
		drop[k] = true
	}
	for i := 0; i < rightOut.NumCols(); i++ {
		c := rightOut.ColAt(i)
		if drop[c.Name()] {
			continue
		}
		if err := out.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestHashJoinMatchesOracleOnRandomBatches(t *testing.T) {
	keyConfigs := []struct {
		name   string
		lk, rk []string
	}{
		{"int1", []string{"id"}, []string{"rid"}},                             // packed [2]int64 fast path
		{"int2", []string{"id", "id2"}, []string{"rid", "rid2"}},              // two packed int keys
		{"string", []string{"s"}, []string{"rs"}},                             // byte-encoded
		{"int+string", []string{"id", "s"}, []string{"rid", "rs"}},            // composite byte-encoded
		{"int3", []string{"id", "id2", "ts"}, []string{"rid", "rid2", "rts"}}, // >2 int keys: byte-encoded
		{"timestamp", []string{"ts"}, []string{"rts"}},                        // int-family fast path
	}
	for _, eng := range testEngines() {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for iter := 0; iter < 80; iter++ {
				left := randNullBatch(rng, rng.Intn(120))
				right := randJoinRight(rng, rng.Intn(80))
				kc := keyConfigs[rng.Intn(len(keyConfigs))]
				got, _, err := eng.pool.HashJoinMem(nil, left, right, kc.lk, kc.rk)
				if err != nil {
					t.Fatalf("iter %d (%s): %v", iter, kc.name, err)
				}
				lsel, rsel := oracleJoinSel(t, left, right, kc.lk, kc.rk)
				want := oracleJoinBatch(t, left, right, kc.rk, lsel, rsel)
				if diff, ok := batchesEqual(got, want); !ok {
					t.Fatalf("iter %d (%s): HashJoin diverges from oracle: %s", iter, kc.name, diff)
				}
				serial, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, kc.lk, kc.rk)
				if err != nil {
					t.Fatalf("iter %d (%s): serial HashJoin: %v", iter, kc.name, err)
				}
				if diff, ok := bitIdenticalBatches(got, serial); !ok {
					t.Fatalf("iter %d (%s): HashJoin not bit-identical to serial: %s", iter, kc.name, diff)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Oracle-checked Sort: a stable sort over boxed values with column.Compare
// (nulls first, NaN tying with everything), mirroring the engine's
// comparator semantics through an independent row-at-a-time path.
// ---------------------------------------------------------------------------

func oracleSortBatch(t *testing.T, b *column.Batch, keys []SortKey) *column.Batch {
	t.Helper()
	n := b.NumRows()
	// Box every key value up front; keys may be arbitrary expressions.
	vals := make([][]column.Value, len(keys))
	for ki, k := range keys {
		vals[ki] = make([]column.Value, n)
		for row := 0; row < n; row++ {
			vals[ki][row] = oracleEval(t, k.Expr, b, row)
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, z int) bool {
		ia, iz := idx[a], idx[z]
		for ki := range keys {
			c, err := column.Compare(vals[ki][ia], vals[ki][iz])
			if err != nil {
				t.Fatalf("oracle sort: %v", err)
			}
			if c == 0 {
				continue
			}
			if keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return b.Gather(idx)
}

func TestSortMatchesOracleOnRandomBatches(t *testing.T) {
	keyConfigs := [][]SortKey{
		{{Expr: &sql.ColumnRef{Name: "ts"}}},
		{{Expr: &sql.ColumnRef{Name: "ts"}, Desc: true}}, // radix path, nulls trailing
		{{Expr: &sql.ColumnRef{Name: "id"}, Desc: true}},
		{{Expr: &sql.ColumnRef{Name: "s"}}, {Expr: &sql.ColumnRef{Name: "id"}}},
		{{Expr: &sql.ColumnRef{Name: "v"}}, {Expr: &sql.ColumnRef{Name: "ts"}, Desc: true}},
		// Descending multi-key mixes over the NaN/null-bearing float column.
		{{Expr: &sql.ColumnRef{Name: "v"}, Desc: true}, {Expr: &sql.ColumnRef{Name: "id"}}},
		{{Expr: &sql.ColumnRef{Name: "v"}, Desc: true}, {Expr: &sql.ColumnRef{Name: "s"}, Desc: true}},
		{{Expr: &sql.ColumnRef{Name: "id"}, Desc: true}, {Expr: &sql.ColumnRef{Name: "v"}, Desc: true}, {Expr: &sql.ColumnRef{Name: "ts"}}},
		{{Expr: &sql.ColumnRef{Name: "id"}}, {Expr: &sql.ColumnRef{Name: "v"}}, {Expr: &sql.ColumnRef{Name: "s"}, Desc: true}},
	}
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 80; iter++ {
		b := randNullBatch(rng, rng.Intn(120))
		keys := keyConfigs[rng.Intn(len(keyConfigs))]
		got, _, err := Sort(context.Background(), b, keys)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := oracleSortBatch(t, b, keys)
		if diff, ok := bitIdenticalBatches(got, want); !ok {
			t.Fatalf("iter %d: Sort diverges from oracle: %s", iter, diff)
		}
	}
}

// ---------------------------------------------------------------------------
// Map-based join oracle: the pre-refactor build structure — map[[2]int64]
// and map[string] with per-key row slices — retained as the reference the
// flat open-addressing table (serial and radix-partitioned) is checked
// against. It shares the engine's key semantics: null keys never join,
// float keys compare by canonicalized bits (floatKeyBits).
// ---------------------------------------------------------------------------

func oracleMapJoinSel(t *testing.T, left, right *column.Batch, lk, rk []string) (lsel, rsel []int32) {
	t.Helper()
	lkc, err := keyColumns(left, lk)
	if err != nil {
		t.Fatal(err)
	}
	rkc, err := keyColumns(right, rk)
	if err != nil {
		t.Fatal(err)
	}
	intKeys := len(lkc) <= 2
	for i := range lkc {
		lt, rt := lkc[i].Type(), rkc[i].Type()
		ok := (lt.IntFamily() && rt.IntFamily()) ||
			(lt == column.Float64 && rt == column.Float64 && !lkc[i].HasNulls() && !rkc[i].HasNulls())
		if !ok {
			intKeys = false
			break
		}
	}
	lsel, rsel = []int32{}, []int32{}
	if intKeys {
		lpk, rpk := packKeyCols(lkc), packKeyCols(rkc)
		ht := make(map[[2]int64][]int32)
		for i := 0; i < right.NumRows(); i++ {
			if nullKey(rkc, i) {
				continue
			}
			a, b := packKey(rpk, i)
			ht[[2]int64{a, b}] = append(ht[[2]int64{a, b}], int32(i))
		}
		for i := 0; i < left.NumRows(); i++ {
			if nullKey(lkc, i) {
				continue
			}
			a, b := packKey(lpk, i)
			for _, ri := range ht[[2]int64{a, b}] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, ri)
			}
		}
		return lsel, rsel
	}
	encode := func(cols []*column.Column, row int) string {
		var buf []byte
		for _, c := range cols {
			buf = appendRowKey(buf, c, row)
		}
		return string(buf)
	}
	ht := make(map[string][]int32)
	for i := 0; i < right.NumRows(); i++ {
		if nullKey(rkc, i) {
			continue
		}
		ht[encode(rkc, i)] = append(ht[encode(rkc, i)], int32(i))
	}
	for i := 0; i < left.NumRows(); i++ {
		if nullKey(lkc, i) {
			continue
		}
		for _, ri := range ht[encode(lkc, i)] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, ri)
		}
	}
	return lsel, rsel
}

// checkJoinAgainstMapOracle runs one join across every engine, asserting
// the flat-table output equals the map oracle's and is bit-identical to
// the serial flat-table build.
func checkJoinAgainstMapOracle(t *testing.T, left, right *column.Batch, lk, rk []string) {
	t.Helper()
	lsel, rsel := oracleMapJoinSel(t, left, right, lk, rk)
	want := oracleJoinBatch(t, left, right, rk, lsel, rsel)
	serial, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, lk, rk)
	if err != nil {
		t.Fatalf("serial HashJoin: %v", err)
	}
	if diff, ok := bitIdenticalBatches(serial, want); !ok {
		t.Fatalf("serial flat table diverges from map oracle: %s", diff)
	}
	for _, eng := range testEngines() {
		got, _, err := eng.pool.HashJoinMem(nil, left, right, lk, rk)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if diff, ok := bitIdenticalBatches(got, serial); !ok {
			t.Fatalf("%s: not bit-identical to serial: %s", eng.name, diff)
		}
	}
}

// TestHashJoinZipfKeys stresses high-duplicate key distributions: zipf
// keys give a few keys very long chains, which is where chain order (and
// therefore partitioned-build determinism) matters most.
func TestHashJoinZipfKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	zipf := rand.NewZipf(rng, 1.2, 1, 40)
	mkCol := func(name string, n int, nullFrac float64) *column.Column {
		c := column.New(name, column.Int64)
		for i := 0; i < n; i++ {
			if rng.Float64() < nullFrac {
				c.AppendNull()
			} else {
				c.AppendInt64(int64(zipf.Uint64()))
			}
		}
		return c
	}
	left := column.MustNewBatch(
		mkCol("id", 900, 0.1),
		mkCol("id2", 900, 0),
		column.NewInt64s("lrow", func() []int64 {
			out := make([]int64, 900)
			for i := range out {
				out[i] = int64(i)
			}
			return out
		}()),
	)
	right := column.MustNewBatch(
		mkCol("rid", 400, 0.1),
		mkCol("rid2", 400, 0),
		column.NewInt64s("rrow", func() []int64 {
			out := make([]int64, 400)
			for i := range out {
				out[i] = int64(i)
			}
			return out
		}()),
	)
	t.Run("single", func(t *testing.T) {
		checkJoinAgainstMapOracle(t, left, right, []string{"id"}, []string{"rid"})
	})
	t.Run("composite", func(t *testing.T) {
		checkJoinAgainstMapOracle(t, left, right, []string{"id", "id2"}, []string{"rid", "rid2"})
	})
}

// TestHashJoinAllNullKeys: a key column that is entirely null joins
// nothing, on either side, through both key paths.
func TestHashJoinAllNullKeys(t *testing.T) {
	allNullInt := func(name string, n int) *column.Column {
		c := column.New(name, column.Int64)
		for i := 0; i < n; i++ {
			c.AppendNull()
		}
		return c
	}
	allNullStr := func(name string, n int) *column.Column {
		c := column.New(name, column.String)
		for i := 0; i < n; i++ {
			c.AppendNull()
		}
		return c
	}
	ints := func(name string, n int) *column.Column {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i % 5)
		}
		return column.NewInt64s(name, vals)
	}
	strs := func(name string, n int) *column.Column {
		vals := make([]string, n)
		words := []string{"a", "b", "c"}
		for i := range vals {
			vals[i] = words[i%3]
		}
		return column.NewStrings(name, vals)
	}
	cases := []struct {
		name        string
		left, right *column.Batch
		lk, rk      []string
	}{
		{"null-build-int", column.MustNewBatch(ints("id", 200)), column.MustNewBatch(allNullInt("rid", 100)), []string{"id"}, []string{"rid"}},
		{"null-probe-int", column.MustNewBatch(allNullInt("id", 200)), column.MustNewBatch(ints("rid", 100)), []string{"id"}, []string{"rid"}},
		{"null-both-int", column.MustNewBatch(allNullInt("id", 200)), column.MustNewBatch(allNullInt("rid", 100)), []string{"id"}, []string{"rid"}},
		{"null-build-string", column.MustNewBatch(strs("s", 200)), column.MustNewBatch(allNullStr("rs", 100)), []string{"s"}, []string{"rs"}},
		{"null-one-of-composite", column.MustNewBatch(ints("id", 200), strs("s", 200)),
			column.MustNewBatch(ints("rid", 100), allNullStr("rs", 100)), []string{"id", "s"}, []string{"rid", "rs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range testEngines() {
				got, _, err := eng.pool.HashJoinMem(nil, tc.left, tc.right, tc.lk, tc.rk)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if got.NumRows() != 0 {
					t.Fatalf("%s: all-null key joined %d rows, want 0", eng.name, got.NumRows())
				}
			}
			checkJoinAgainstMapOracle(t, tc.left, tc.right, tc.lk, tc.rk)
		})
	}
}

// TestHashJoinFloatKeys covers the bit-cast Float64 fast path: null-free
// float keys pack into the int fast path, canonicalized so every NaN
// payload joins every other NaN and -0 joins +0 — on both the packed and
// byte-encoded (nullable / composite) paths.
func TestHashJoinFloatKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanAlt := math.Float64frombits(0x7FF8000000000001) // non-canonical payload
	pool := []float64{1.5, -2.25, 0, negZero, math.NaN(), nanAlt, 3.75, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(131))
	mk := func(name string, n int, nullFrac float64) *column.Column {
		c := column.New(name, column.Float64)
		for i := 0; i < n; i++ {
			if rng.Float64() < nullFrac {
				c.AppendNull()
			} else {
				c.AppendFloat64(pool[rng.Intn(len(pool))])
			}
		}
		return c
	}
	t.Run("nullfree-fastpath", func(t *testing.T) {
		left := column.MustNewBatch(mk("f", 300, 0), mk("g", 300, 0))
		right := column.MustNewBatch(mk("rf", 150, 0), mk("rg", 150, 0))
		checkJoinAgainstMapOracle(t, left, right, []string{"f"}, []string{"rf"})
		checkJoinAgainstMapOracle(t, left, right, []string{"f", "g"}, []string{"rf", "rg"})
	})
	t.Run("nullable-generic", func(t *testing.T) {
		left := column.MustNewBatch(mk("f", 300, 0.2))
		right := column.MustNewBatch(mk("rf", 150, 0.2))
		checkJoinAgainstMapOracle(t, left, right, []string{"f"}, []string{"rf"})
	})
	t.Run("nan-and-zero-semantics", func(t *testing.T) {
		left := column.MustNewBatch(column.NewFloat64s("f", []float64{math.NaN(), 0, 7}))
		right := column.MustNewBatch(
			column.NewFloat64s("rf", []float64{nanAlt, negZero, 8}),
			column.NewStrings("tag", []string{"nan", "zero", "other"}),
		)
		got, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"f"}, []string{"rf"})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != 2 {
			t.Fatalf("NaN/zero join matched %d rows, want 2 (NaN=NaN, -0=+0)", got.NumRows())
		}
		tags, _ := got.Col("tag")
		if tags.Strings()[0] != "nan" || tags.Strings()[1] != "zero" {
			t.Fatalf("unexpected matches: %v", tags.Strings())
		}
		// The nullable (byte-encoded) path must agree on the same data.
		ln := column.New("f", column.Float64)
		ln.AppendFloat64(math.NaN())
		ln.AppendFloat64(0)
		ln.AppendNull()
		left2 := column.MustNewBatch(ln)
		got2, _, err := (*Pool)(nil).HashJoinMem(nil, left2, right, []string{"f"}, []string{"rf"})
		if err != nil {
			t.Fatal(err)
		}
		if got2.NumRows() != 2 {
			t.Fatalf("generic-path NaN/zero join matched %d rows, want 2", got2.NumRows())
		}
	})
}

// ---------------------------------------------------------------------------
// Radix sort vs comparator: direct unit checks over full-range keys (the
// random batches above only exercise small domains).
// ---------------------------------------------------------------------------

func TestRadixSortMatchesComparatorOnFullRangeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(400)
		ints := make([]int64, n)
		var nulls []bool
		for i := range ints {
			switch rng.Intn(8) {
			case 0:
				ints[i] = math.MinInt64
			case 1:
				ints[i] = math.MaxInt64
			case 2:
				ints[i] = 0
			default:
				ints[i] = rng.Int63() - rng.Int63()
			}
		}
		if rng.Intn(2) == 0 {
			nulls = make([]bool, n)
			for i := range nulls {
				if rng.Float64() < 0.2 {
					nulls[i] = true
					ints[i] = 0
				}
			}
		}
		for _, desc := range []bool{false, true} {
			k := sortKeyData{desc: desc, typ: column.Int64, ints: ints, nulls: nulls}
			radixSel := selAll(n)
			radixSortInts(context.Background(), &k, radixSel)
			cmpSel := selAll(n)
			comparatorSortSel(context.Background(), []sortKeyData{k}, cmpSel)
			if fmt.Sprint(radixSel) != fmt.Sprint(cmpSel) {
				t.Fatalf("iter %d desc=%v: radix %v != comparator %v", iter, desc, radixSel, cmpSel)
			}
		}
	}
}

// TestSortLargeParallel holds Sort to the boxed oracle on inputs larger
// than two default morsels — radix-eligible timestamp keys and comparator
// keys (string, and float multi-keys with and without a NaN, which ties
// with every value) — in both directions.
func TestSortLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	n := 40_000
	ts := column.New("ts", column.Timestamp)
	s := column.New("s", column.String)
	v := column.New("v", column.Float64)
	nan := column.New("nan", column.Float64)
	words := []string{"alpha", "beta", "gamma", "delta", ""}
	tag := make([]int64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.05 {
			ts.AppendNull()
		} else {
			ts.AppendInt64(rng.Int63n(1000) * 1_000_000_000)
		}
		if rng.Float64() < 0.05 {
			s.AppendNull()
		} else {
			s.AppendString(words[rng.Intn(len(words))])
		}
		if rng.Float64() < 0.05 {
			v.AppendNull()
		} else {
			v.AppendFloat64(float64(rng.Intn(40)) / 4)
		}
		switch r := rng.Float64(); {
		case r < 0.05:
			nan.AppendNull()
		case r < 0.1:
			nan.AppendFloat64(math.NaN())
		default:
			nan.AppendFloat64(float64(rng.Intn(40)) / 4)
		}
		tag[i] = int64(i)
	}
	b := column.MustNewBatch(ts, s, v, nan, column.NewInt64s("tag", tag))
	for _, desc := range []bool{false, true} {
		for _, c := range []struct {
			label string
			keys  []SortKey
		}{
			{"radix", []SortKey{{Expr: &sql.ColumnRef{Name: "ts"}, Desc: desc}}},
			{"comparator-string", []SortKey{{Expr: &sql.ColumnRef{Name: "s"}, Desc: desc}}},
			{"comparator-multikey", []SortKey{{Expr: &sql.ColumnRef{Name: "v"}, Desc: desc}, {Expr: &sql.ColumnRef{Name: "ts"}}}},
			{"comparator-nan-multikey", []SortKey{{Expr: &sql.ColumnRef{Name: "nan"}, Desc: desc}, {Expr: &sql.ColumnRef{Name: "s"}}}},
		} {
			got, _, err := Sort(context.Background(), b, c.keys)
			if err != nil {
				t.Fatalf("%s desc=%v: %v", c.label, desc, err)
			}
			if diff, ok := bitIdenticalBatches(got, oracleSortBatch(t, b, c.keys)); !ok {
				t.Fatalf("%s desc=%v: Sort diverges from oracle: %s", c.label, desc, diff)
			}
		}
	}
}

// TestAggregateFloatKeyCanonicalization pins the engine-wide float key
// equality: GROUP BY and COUNT(DISTINCT) collapse every NaN payload to one
// value and -0 to +0, agreeing with the comparison kernels and the join
// paths (floatKeyBits).
func TestAggregateFloatKeyCanonicalization(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanAlt := math.Float64frombits(0x7FF8000000000001)
	v := column.NewFloat64s("v", []float64{math.NaN(), nanAlt, 0, negZero, 1})
	b := column.MustNewBatch(v)
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "v"}}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "cnt"},
		{Func: "COUNT", Arg: &sql.ColumnRef{Name: "v"}, Distinct: true, OutName: "cd"},
	}
	for _, eng := range testEngines() {
		got, err := pipeAggregate(eng.pool, nil, b, groupBy, aggs)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if got.NumRows() != 3 {
			t.Fatalf("%s: %d groups, want 3 (NaN, 0, 1)", eng.name, got.NumRows())
		}
		cnt, _ := got.Col("cnt")
		cd, _ := got.Col("cd")
		if cnt.Int64s()[0] != 2 || cnt.Int64s()[1] != 2 || cnt.Int64s()[2] != 1 {
			t.Fatalf("%s: group counts %v, want [2 2 1]", eng.name, cnt.Int64s())
		}
		for g := 0; g < 3; g++ {
			if cd.Int64s()[g] != 1 {
				t.Fatalf("%s: group %d distinct count %d, want 1", eng.name, g, cd.Int64s()[g])
			}
		}
	}
}

// asBool is the truth value of a Bool Value; nulls are false.
func asBool(v column.Value) bool { return !v.Null && v.I != 0 }

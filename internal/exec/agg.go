package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/column"
	"repro/internal/sql"
)

// AggSpec describes one aggregate to compute.
type AggSpec struct {
	Func     string   // AVG, MIN, MAX, SUM, COUNT (upper-case)
	Arg      sql.Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
	OutName  string // output column name
}

// aggState accumulates one aggregate for one group. Values are kept in raw
// typed fields (no Value boxing on the per-row path); which min/max fields
// are meaningful follows the argument column's type.
type aggState struct {
	count      int64
	sum        float64
	intSum     int64
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	seen       map[string]struct{} // COUNT(DISTINCT ...)
	any        bool
}

// aggArg is the unpacked per-aggregate input: raw vectors of the evaluated
// argument column, hoisted out of the per-row loop. (An argument in run form
// is expanded by these reads; only group keys are walked per run.) Every
// fold over it — per row, per run, grouped or global — visits a group's rows
// left to right, so there is one summation order in the engine.
type aggArg struct {
	star     bool
	distinct bool
	typ      column.Type
	ints     []int64
	fls      []float64
	strs     []string
	nulls    []bool
}

// aggGroup is one output group: the first row that produced it (group-by
// key values are gathered from there) and one state per aggregate,
// allocated contiguously.
type aggGroup struct {
	firstRow int32
	states   []aggState
}

// outType determines the aggregate's result type from its input type.
func aggOutType(fn string, in column.Type) (column.Type, error) {
	switch fn {
	case "COUNT":
		return column.Int64, nil
	case "AVG":
		if !in.Numeric() {
			return 0, fmt.Errorf("exec: AVG over %v", in)
		}
		return column.Float64, nil
	case "SUM":
		if !in.Numeric() {
			return 0, fmt.Errorf("exec: SUM over %v", in)
		}
		if in == column.Float64 {
			return column.Float64, nil
		}
		return column.Int64, nil
	case "MIN", "MAX":
		return in, nil
	default:
		return 0, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
}

// Aggregate groups the batch by the groupBy expressions and computes the
// aggregates. The output has one column per group-by expression (named by
// its SQL text) followed by one column per AggSpec. With no group-by
// expressions, a single global group is produced (even over zero rows, per
// SQL semantics: COUNT is 0, other aggregates NULL).
//
// Grouped input is one morsel through an AggSink. Ungrouped input folds here,
// row by row through updateAggStates — the same left-to-right order as the
// sink's zero-key walk, hence the same bits, but sharing neither foldRange
// nor the sink with it: that independence is what lets the NoPipeline
// reference built on this function check the pipeline's global fold.
func Aggregate(b *column.Batch, groupBy []sql.Expr, aggs []AggSpec) (*column.Batch, error) {
	if len(groupBy) > 0 {
		s, err := NewAggSink(b.Range(0, 0), groupBy, aggs, nil)
		if err != nil {
			return nil, err
		}
		if err := s.Consume(Morsel{B: b}); err != nil {
			return nil, err
		}
		return s.Finish()
	}
	_, args, err := evalAggInputs(b, nil, aggs)
	if err != nil {
		return nil, err
	}
	states := make([]aggState, len(args))
	for row, n := 0, b.NumRows(); row < n; row++ {
		updateAggStates(states, args, row)
	}
	return buildAggOutput(nil, nil, args, aggs, []aggGroup{{states: states}})
}

// intKeyed reports whether the grouping takes the integer-keyed fast path:
// a single key of an integer-family type, hashed as the raw int64.
func intKeyed(groupBy []sql.Expr, keyCols []*column.Column) bool {
	return len(groupBy) == 1 && keyCols[0].Type() != column.Float64 && keyCols[0].Type() != column.String
}

// evalAggInputs evaluates the group-key expressions and unpacks the
// aggregate arguments into raw vectors, once per batch, vectorized.
func evalAggInputs(b *column.Batch, groupBy []sql.Expr, aggs []AggSpec) ([]*column.Column, []aggArg, error) {
	keyCols := make([]*column.Column, len(groupBy))
	for i, g := range groupBy {
		c, err := Eval(g, b)
		if err != nil {
			return nil, nil, err
		}
		keyCols[i] = c
	}
	args := make([]aggArg, len(aggs))
	for i, a := range aggs {
		if a.Star {
			args[i] = aggArg{star: true}
			continue
		}
		c, err := Eval(a.Arg, b)
		if err != nil {
			return nil, nil, err
		}
		args[i] = aggArg{
			distinct: a.Distinct,
			typ:      c.Type(),
			ints:     c.Int64s(),
			fls:      c.Float64s(),
			strs:     c.Strings(),
			nulls:    c.Nulls(),
		}
	}
	return keyCols, args, nil
}

// buildAggOutput assembles the result batch: group keys gather from each
// group's first row; aggregate results fill preallocated vectors from the
// states. groups must be in output order (first appearance, i.e. ascending
// firstRow).
func buildAggOutput(keyCols []*column.Column, groupBy []sql.Expr, args []aggArg, aggs []AggSpec, groups []aggGroup) (*column.Batch, error) {
	var outCols []*column.Column
	if len(groupBy) > 0 {
		firstRows := make([]int32, len(groups))
		for i, g := range groups {
			firstRows[i] = g.firstRow
		}
		for i, g := range groupBy {
			outCols = append(outCols, keyCols[i].Gather(firstRows).WithName(g.String()))
		}
	}
	for i, spec := range aggs {
		inType := column.Int64
		if !args[i].star {
			inType = args[i].typ
		}
		ot, err := aggOutType(spec.Func, inType)
		if err != nil {
			return nil, err
		}
		outCols = append(outCols, buildAggColumn(spec.OutName, spec.Func, ot, groups, i))
	}
	return column.NewBatch(outCols...)
}

// appendRowKey encodes one key column's value at row into buf: a tag byte,
// then a fixed-width little-endian payload for numerics or a length-prefixed
// payload for strings (so composite keys cannot collide across columns).
// Float values encode their canonicalized bits (floatKeyBits), so every
// key consumer — GROUP BY, COUNT(DISTINCT), JOIN — agrees with the
// comparison kernels that all NaNs are one value and -0 equals +0.
func appendRowKey(buf []byte, c *column.Column, row int) []byte {
	if c.IsNull(row) {
		return append(buf, 'N')
	}
	switch c.Type() {
	case column.Float64:
		buf = append(buf, 'f')
		return binary.LittleEndian.AppendUint64(buf, floatKeyBits(c.Float64s()[row]))
	case column.String:
		s := c.Strings()[row]
		buf = append(buf, 's')
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...)
	default:
		buf = append(buf, 'i')
		return binary.LittleEndian.AppendUint64(buf, uint64(c.Int64s()[row]))
	}
}

// updateAggStates folds row into every aggregate's state for its group.
func updateAggStates(states []aggState, args []aggArg, row int) {
	for i := range args {
		updateOneAgg(&states[i], &args[i], row)
	}
}

// updateOneAgg folds row into a single aggregate's state.
func updateOneAgg(st *aggState, a *aggArg, row int) {
	if a.star {
		st.count++
		return
	}
	if a.nulls != nil && a.nulls[row] {
		return // aggregates ignore nulls
	}
	switch a.typ {
	case column.Float64:
		v := a.fls[row]
		if a.distinct && !distinctBits(st, floatKeyBits(v)) {
			return
		}
		st.count++
		st.sum += v
		if !st.any {
			st.minF, st.maxF = v, v
			st.any = true
		} else {
			if v < st.minF {
				st.minF = v
			}
			if v > st.maxF {
				st.maxF = v
			}
		}
	case column.String:
		v := a.strs[row]
		if a.distinct {
			if st.seen == nil {
				st.seen = make(map[string]struct{})
			}
			if _, dup := st.seen[v]; dup {
				return
			}
			st.seen[v] = struct{}{}
		}
		st.count++
		if !st.any {
			st.minS, st.maxS = v, v
			st.any = true
		} else {
			if v < st.minS {
				st.minS = v
			}
			if v > st.maxS {
				st.maxS = v
			}
		}
	default: // integer family
		v := a.ints[row]
		if a.distinct && !distinctBits(st, uint64(v)) {
			return
		}
		st.count++
		st.intSum += v
		st.sum += float64(v)
		if !st.any {
			st.minI, st.maxI = v, v
			st.any = true
		} else {
			if v < st.minI {
				st.minI = v
			}
			if v > st.maxI {
				st.maxI = v
			}
		}
	}
}

// foldRange folds rows [lo, hi) into one aggregate's state, in row order and
// to the same bits as updateOneAgg row by row: the common shapes — COUNT(*)
// and a null-free, non-DISTINCT numeric argument — run as one typed loop
// over the slice with the state held in locals.
func foldRange(st *aggState, a *aggArg, lo, hi int) {
	switch {
	case a.star:
		st.count += int64(hi - lo)
	case a.distinct || a.nulls != nil || a.typ == column.String:
		for row := lo; row < hi; row++ {
			updateOneAgg(st, a, row)
		}
	case a.typ == column.Float64:
		vals := a.fls[lo:hi]
		if !st.any {
			st.minF, st.maxF, st.any = vals[0], vals[0], true
		}
		sum, mn, mx := st.sum, st.minF, st.maxF
		for _, v := range vals {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		st.count += int64(len(vals))
		st.sum, st.minF, st.maxF = sum, mn, mx
	default: // integer family
		vals := a.ints[lo:hi]
		if !st.any {
			st.minI, st.maxI, st.any = vals[0], vals[0], true
		}
		isum, sum, mn, mx := st.intSum, st.sum, st.minI, st.maxI
		for _, v := range vals {
			isum += v
			sum += float64(v)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		st.count += int64(len(vals))
		st.intSum, st.sum, st.minI, st.maxI = isum, sum, mn, mx
	}
}

// distinctBits records a numeric value's bit pattern in the state's seen
// set, reporting whether it was new. Lookups do not allocate; only first
// occurrences copy the 8-byte key.
func distinctBits(st *aggState, bits uint64) bool {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], bits)
	if st.seen == nil {
		st.seen = make(map[string]struct{})
	}
	if _, dup := st.seen[string(kb[:])]; dup {
		return false
	}
	st.seen[string(kb[:])] = struct{}{}
	return true
}

// buildAggColumn materializes one aggregate's result column across all
// groups into a preallocated vector.
func buildAggColumn(name, fn string, ot column.Type, groups []aggGroup, ai int) *column.Column {
	ng := len(groups)
	var nulls []bool
	setNull := func(g int) {
		if nulls == nil {
			nulls = make([]bool, ng)
		}
		nulls[g] = true
	}
	var c *column.Column
	switch {
	case fn == "COUNT":
		out := make([]int64, ng)
		for g := range groups {
			out[g] = groups[g].states[ai].count
		}
		return column.NewIntFamily(name, column.Int64, out)
	case fn == "AVG":
		out := make([]float64, ng)
		for g := range groups {
			st := &groups[g].states[ai]
			if st.count == 0 {
				setNull(g)
				continue
			}
			out[g] = st.sum / float64(st.count)
		}
		c = column.NewFloat64s(name, out)
	case fn == "SUM" && ot == column.Int64:
		out := make([]int64, ng)
		for g := range groups {
			st := &groups[g].states[ai]
			if st.count == 0 {
				setNull(g)
				continue
			}
			out[g] = st.intSum
		}
		c = column.NewIntFamily(name, column.Int64, out)
	case fn == "SUM":
		out := make([]float64, ng)
		for g := range groups {
			st := &groups[g].states[ai]
			if st.count == 0 {
				setNull(g)
				continue
			}
			out[g] = st.sum
		}
		c = column.NewFloat64s(name, out)
	default: // MIN, MAX over the argument's own type
		isMin := fn == "MIN"
		switch ot {
		case column.Float64:
			out := make([]float64, ng)
			for g := range groups {
				st := &groups[g].states[ai]
				if !st.any {
					setNull(g)
					continue
				}
				if isMin {
					out[g] = st.minF
				} else {
					out[g] = st.maxF
				}
			}
			c = column.NewFloat64s(name, out)
		case column.String:
			out := make([]string, ng)
			for g := range groups {
				st := &groups[g].states[ai]
				if !st.any {
					setNull(g)
					continue
				}
				if isMin {
					out[g] = st.minS
				} else {
					out[g] = st.maxS
				}
			}
			c = column.NewStrings(name, out)
		default:
			out := make([]int64, ng)
			for g := range groups {
				st := &groups[g].states[ai]
				if !st.any {
					setNull(g)
					continue
				}
				if isMin {
					out[g] = st.minI
				} else {
					out[g] = st.maxI
				}
			}
			c = column.NewIntFamily(name, ot, out)
		}
	}
	c.SetNulls(nulls)
	return c
}

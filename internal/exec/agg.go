package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// aggState accumulates one argument (a slot) for one group. Values are kept
// in raw typed fields (no Value boxing on the per-row path); which min/max
// fields are meaningful follows the argument column's type.
type aggState struct {
	count      int64
	sum        float64
	intSum     int64
	wraps      int64 // signed wraps of intSum: the exact sum is intSum + wraps·2⁶⁴
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	seen       map[string]struct{} // COUNT(DISTINCT ...)
	any        bool
}

// aggArg is the unpacked per-slot input: raw vectors of the evaluated
// argument column, hoisted out of the per-row loop. (An argument in run form
// is expanded by these reads; only group keys are walked per run.) Every
// fold over it — per row, per range, per selection — visits a group's rows
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
// key values are gathered from there) and one state per slot, allocated
// contiguously.
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
		if !in.Numeric() || in == column.Timestamp {
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
// It folds row by row, one state per spec and one key lookup per row — the
// sink's order, hence its bits, but none of its slots, folds or group
// walks: that independence is what lets the tests' reference built on this
// function check the pipeline.
func Aggregate(b *column.Batch, groupBy []sql.Expr, aggs []AggSpec) (*column.Batch, error) {
	keyCols, args, err := evalAggInputs(b, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	n := b.NumRows()
	if len(groupBy) == 0 {
		states := make([]aggState, len(aggs))
		for row := 0; row < n; row++ {
			updateAggStates(states, args, row)
		}
		return buildAggOutput(nil, nil, args, aggs, nil, []aggGroup{{states: states}})
	}
	var groups []aggGroup
	index := make(map[string]int)
	var key []byte
	for row := 0; row < n; row++ {
		key = key[:0]
		for _, kc := range keyCols {
			key = appendRowKey(key, kc, row)
		}
		gi, ok := index[string(key)]
		if !ok {
			gi = len(groups)
			index[string(key)] = gi
			groups = append(groups, aggGroup{firstRow: int32(row), states: make([]aggState, len(aggs))})
		}
		updateAggStates(groups[gi].states, args, row)
	}
	return buildAggOutput(keyCols, groupBy, args, aggs, nil, groups)
}

// aggSlots maps each spec to a slot: every COUNT(*) shares one, and so do
// specs over the same plain column with equal Distinct. Any other argument
// gets its own: equal text is not an equal value (SUM(1) and SUM(1.0)).
func aggSlots(aggs []AggSpec) (slots []AggSpec, slot []int) {
	slot = make([]int, len(aggs))
	for i, a := range aggs {
		j := slices.IndexFunc(slots, func(s AggSpec) bool {
			sc, ok1 := s.Arg.(*sql.ColumnRef)
			ac, ok2 := a.Arg.(*sql.ColumnRef)
			return s.Star && a.Star || ok1 && ok2 && sc.Name == ac.Name && s.Distinct == a.Distinct
		})
		if j < 0 {
			j, slots = len(slots), append(slots, a)
		}
		slot[i] = j
	}
	return slots, slot
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
// group's first row; spec i's results fill a preallocated vector from the
// states at slot[i] (nil: at i). groups must be in output order (first
// appearance, i.e. ascending firstRow).
func buildAggOutput(keyCols []*column.Column, groupBy []sql.Expr, args []aggArg, aggs []AggSpec, slot []int, groups []aggGroup) (*column.Batch, error) {
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
		si := i
		if slot != nil {
			si = slot[i]
		}
		inType := column.Int64
		if !args[si].star {
			inType = args[si].typ
		}
		ot, err := aggOutType(spec.Func, inType)
		if err != nil {
			return nil, err
		}
		c, err := buildAggColumn(spec, ot, groups, si)
		if err != nil {
			return nil, err
		}
		outCols = append(outCols, c)
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
		st.minF, st.maxF = bounds(st.any, st.minF, st.maxF, v)
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
		st.minS, st.maxS = bounds(st.any, st.minS, st.maxS, v)
	default: // integer family
		v := a.ints[row]
		if a.distinct && !distinctBits(st, uint64(v)) {
			return
		}
		st.count++
		st.intSum, st.wraps = addInt(st.intSum, v, st.wraps)
		st.sum += float64(v)
		st.minI, st.maxI = bounds(st.any, st.minI, st.maxI, v)
	}
	st.any = true
}

// bounds folds v into a running min and max: the first value (seeded
// false) sets both, a later one replaces a bound only by comparing below or
// above it — the NaN and signed-zero rule doc.go spells out.
func bounds[T int64 | float64 | string](seeded bool, mn, mx, v T) (T, T) {
	if !seeded {
		return v, v
	}
	if v < mn {
		mn = v
	}
	if v > mx {
		mx = v
	}
	return mn, mx
}

// addInt adds v to the two's-complement sum s and counts a signed wrap
// into k, so that s + k·2⁶⁴ is the exact sum; k does not depend on the
// order of the additions.
func addInt(s, v, k int64) (int64, int64) {
	r := s + v
	if (s^r)&(v^r) < 0 {
		k += v>>63 | 1
	}
	return r, k
}

// fold, the sink's one fold entry point, folds rows [lo, hi) — or, given
// one, the rows of a non-empty sel — into one slot's state, in row order
// and to the bits of updateOneAgg row by row. A null-free, non-DISTINCT
// numeric argument runs one typed loop with the state in locals.
func fold(st *aggState, a *aggArg, sel []int32, lo, hi int) {
	switch {
	case a.star && sel != nil:
		st.count += int64(len(sel))
	case a.star:
		st.count += int64(hi - lo)
	case a.distinct || a.nulls != nil || a.typ == column.String:
		for row := lo; sel == nil && row < hi; row++ {
			updateOneAgg(st, a, row)
		}
		for _, row := range sel {
			updateOneAgg(st, a, int(row))
		}
	case a.typ == column.Float64:
		foldFloats(st, a.fls, sel, lo, hi)
	default: // integer family
		foldInts(st, a.ints, sel, lo, hi)
	}
}

// foldFloats is fold's typed loop over a float argument.
func foldFloats(st *aggState, vals []float64, sel []int32, lo, hi int) {
	n := hi - lo
	if sel != nil {
		lo, n = int(sel[0]), len(sel)
	}
	// Seed an empty state; the loop folds vals[lo] again, which moves no bound.
	mn, mx := bounds(st.any, st.minF, st.maxF, vals[lo])
	sum := st.sum
	if sel == nil {
		for _, v := range vals[lo:hi] {
			sum += v
			mn, mx = bounds(true, mn, mx, v)
		}
	}
	for _, row := range sel {
		v := vals[row]
		sum += v
		mn, mx = bounds(true, mn, mx, v)
	}
	st.count += int64(n)
	st.sum, st.minF, st.maxF, st.any = sum, mn, mx, true
}

// foldInts is foldFloats over an integer-family argument, which also keeps
// the exact int64 sum and its wrap count.
func foldInts(st *aggState, vals []int64, sel []int32, lo, hi int) {
	n := hi - lo
	if sel != nil {
		lo, n = int(sel[0]), len(sel)
	}
	mn, mx := bounds(st.any, st.minI, st.maxI, vals[lo])
	isum, k, sum := st.intSum, st.wraps, st.sum
	if sel == nil {
		for _, v := range vals[lo:hi] {
			isum, k = addInt(isum, v, k)
			sum += float64(v)
			mn, mx = bounds(true, mn, mx, v)
		}
	}
	for _, row := range sel {
		v := vals[row]
		isum, k = addInt(isum, v, k)
		sum += float64(v)
		mn, mx = bounds(true, mn, mx, v)
	}
	st.count += int64(n)
	st.intSum, st.wraps, st.sum, st.minI, st.maxI, st.any = isum, k, sum, mn, mx, true
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
// groups' states at slot ai into a preallocated vector; an integer SUM
// outside int64 is an error, not a wrapped answer.
func buildAggColumn(spec AggSpec, ot column.Type, groups []aggGroup, ai int) (*column.Column, error) {
	name, fn := spec.OutName, spec.Func
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
		return column.NewIntFamily(name, column.Int64, out), nil
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
			if st.wraps != 0 {
				return nil, fmt.Errorf("exec: SUM(%s) overflows int64", spec.Arg)
			}
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
	return c, nil
}

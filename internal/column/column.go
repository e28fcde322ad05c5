package column

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Column is an append-only typed vector with a name. Integer-family types
// (Int64, Timestamp, Bool) share the ints slice; Float64 uses floats;
// String uses strs. Nulls are tracked in a lazily allocated bitmap-like
// slice (nil when the column has no nulls, the common case).
//
// A column built by Repeat is in constant-run form instead: run holds one
// value per run and the vectors above stay empty. It is read-only, like the
// views Slice and Range return.
type Column struct {
	name  string
	typ   Type
	ints  []int64
	fls   []float64
	strs  []string
	nulls []bool // nil == no nulls anywhere
	run   *runs  // non-nil == constant-run form
}

// runs is the constant-run form: run x repeats row x of vals over rows
// [ends[x-1], ends[x]). It sits behind a pointer so WithName copies share
// it, and with it the one expansion every raw-vector reader gets.
type runs struct {
	vals *Column // flat, one row per run
	ends []int32 // cumulative row ends, strictly ascending: no run is empty
	once sync.Once
	flat *Column // vals expanded to one value per row, built by once
}

// at returns the run holding row i.
func (r *runs) at(i int) int {
	return sort.Search(len(r.ends), func(x int) bool { return int(r.ends[x]) > i })
}

// flat returns the column whose vectors hold c's rows one value each: c
// itself, or the run form's expansion, built on first use and safe to ask
// for from several goroutines.
func (c *Column) flat() *Column {
	r := c.run
	if r == nil {
		return c
	}
	r.once.Do(func() {
		f := &Column{typ: c.typ}
		switch c.typ {
		case Float64:
			f.fls = repeatRuns(r.vals.fls, r.ends)
		case String:
			f.strs = repeatRuns(r.vals.strs, r.ends)
		default:
			f.ints = repeatRuns(r.vals.ints, r.ends)
		}
		if r.vals.nulls != nil {
			f.nulls = repeatRuns(r.vals.nulls, r.ends)
		}
		r.flat = f
	})
	return r.flat
}

// New creates an empty column.
func New(name string, typ Type) *Column {
	return &Column{name: name, typ: typ}
}

// NewInt64s creates an Int64 column wrapping vals (not copied).
func NewInt64s(name string, vals []int64) *Column {
	return &Column{name: name, typ: Int64, ints: vals}
}

// NewTimestamps creates a Timestamp column wrapping nanosecond values.
func NewTimestamps(name string, ns []int64) *Column {
	return &Column{name: name, typ: Timestamp, ints: ns}
}

// NewFloat64s creates a Float64 column wrapping vals (not copied).
func NewFloat64s(name string, vals []float64) *Column {
	return &Column{name: name, typ: Float64, fls: vals}
}

// NewStrings creates a String column wrapping vals (not copied).
func NewStrings(name string, vals []string) *Column {
	return &Column{name: name, typ: String, strs: vals}
}

// NewIntFamily creates a column of an integer-family type (Int64, Bool or
// Timestamp) wrapping vals (not copied). Kernels use it to return
// preallocated result vectors without per-row appends.
func NewIntFamily(name string, typ Type, vals []int64) *Column {
	if typ == Float64 || typ == String {
		panic(fmt.Sprintf("column: NewIntFamily with %v", typ))
	}
	return &Column{name: name, typ: typ, ints: vals}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Type returns the column type.
func (c *Column) Type() Type { return c.typ }

// WithName returns a shallow copy of the column under a new name; the
// underlying vectors are shared.
func (c *Column) WithName(name string) *Column {
	cp := *c
	cp.name = name
	return &cp
}

// Len returns the number of values.
func (c *Column) Len() int {
	if r := c.run; r != nil {
		if len(r.ends) == 0 {
			return 0
		}
		return int(r.ends[len(r.ends)-1])
	}
	switch c.typ {
	case Float64:
		return len(c.fls)
	case String:
		return len(c.strs)
	default:
		return len(c.ints)
	}
}

// growNulls extends the null bitmap to the current length if allocated.
func (c *Column) growNulls(isNull bool) {
	if c.nulls == nil && !isNull {
		return
	}
	if c.nulls == nil {
		c.nulls = make([]bool, c.Len()-1)
	}
	c.nulls = append(c.nulls, isNull)
}

// AppendInt64 appends to an Int64, Timestamp or Bool column.
func (c *Column) AppendInt64(v int64) {
	c.ints = append(c.ints, v)
	c.growNulls(false)
}

// AppendFloat64 appends to a Float64 column.
func (c *Column) AppendFloat64(v float64) {
	c.fls = append(c.fls, v)
	c.growNulls(false)
}

// AppendString appends to a String column.
func (c *Column) AppendString(v string) {
	c.strs = append(c.strs, v)
	c.growNulls(false)
}

// AppendNull appends a null value.
func (c *Column) AppendNull() {
	switch c.typ {
	case Float64:
		c.fls = append(c.fls, 0)
	case String:
		c.strs = append(c.strs, "")
	default:
		c.ints = append(c.ints, 0)
	}
	c.growNulls(true)
}

// AppendValue appends a Value, which must match the column type (Int64 and
// Timestamp are interchangeable).
func (c *Column) AppendValue(v Value) error {
	if v.Null {
		c.AppendNull()
		return nil
	}
	switch c.typ {
	case Float64:
		if !v.Type.Numeric() {
			return fmt.Errorf("column %s: cannot append %v to DOUBLE", c.name, v.Type)
		}
		c.AppendFloat64(v.AsFloat())
	case String:
		if v.Type != String {
			return fmt.Errorf("column %s: cannot append %v to VARCHAR", c.name, v.Type)
		}
		c.AppendString(v.S)
	case Int64, Timestamp, Bool:
		if !v.Type.Numeric() && v.Type != Bool {
			return fmt.Errorf("column %s: cannot append %v to %v", c.name, v.Type, c.typ)
		}
		c.AppendInt64(v.AsInt())
	}
	return nil
}

// IsNull reports whether the i-th value is null.
func (c *Column) IsNull(i int) bool {
	if c.run != nil {
		return c.run.isNull(i)
	}
	return c.nulls != nil && c.nulls[i]
}

// isNull is IsNull for the run form, kept out of line so that IsNull itself
// still inlines into the per-row loops that call it on flat columns.
func (r *runs) isNull(i int) bool {
	return r.vals.nulls != nil && r.vals.nulls[r.at(i)]
}

// Value returns the i-th value boxed.
func (c *Column) Value(i int) Value {
	if r := c.run; r != nil {
		return r.vals.Value(r.at(i))
	}
	if c.IsNull(i) {
		return NewNull(c.typ)
	}
	switch c.typ {
	case Float64:
		return NewFloat64(c.fls[i])
	case String:
		return NewString(c.strs[i])
	case Bool:
		return Value{Type: Bool, I: c.ints[i]}
	case Timestamp:
		return NewTimestamp(c.ints[i])
	default:
		return NewInt64(c.ints[i])
	}
}

// Int64s exposes the raw integer vector (Int64, Timestamp, Bool columns).
// On a column in run form the raw-vector accessors expand it, once.
func (c *Column) Int64s() []int64 {
	if c.run != nil {
		return c.flat().ints
	}
	return c.ints
}

// Float64s exposes the raw float vector.
func (c *Column) Float64s() []float64 {
	if c.run != nil {
		return c.flat().fls
	}
	return c.fls
}

// Strings exposes the raw string vector.
func (c *Column) Strings() []string {
	if c.run != nil {
		return c.flat().strs
	}
	return c.strs
}

// Nulls exposes the raw null vector: nil when the column has no nulls (the
// common case kernels exploit as a branch-free fast path), else a []bool of
// the column's length with true marking null positions.
func (c *Column) Nulls() []bool {
	if c.run != nil {
		if c.run.vals.nulls == nil {
			return nil
		}
		return c.flat().nulls
	}
	return c.nulls
}

// Runs returns the constant-run form of a column Repeat built: run x holds
// row x of vals over rows [ends[x-1], ends[x]), no run empty. ok is false
// for a flat column. Operators that understand the form work once per run
// from it; every other reader uses the accessors above and never sees it.
func (c *Column) Runs() (vals *Column, ends []int32, ok bool) {
	if c.run == nil {
		return nil, nil, false
	}
	return c.run.vals, c.run.ends, true
}

// SetNulls attaches a null vector to the column (nil clears it). The length
// must match the column length; all-false vectors may be passed and are
// kept as-is.
func (c *Column) SetNulls(nulls []bool) {
	if nulls != nil && len(nulls) != c.Len() {
		panic(fmt.Sprintf("column %s: SetNulls len %d != column len %d", c.name, len(nulls), c.Len()))
	}
	c.nulls = nulls
}

// HasNulls reports whether the column may contain nulls (a nil null vector
// guarantees it does not).
func (c *Column) HasNulls() bool {
	if c.run != nil {
		return c.run.vals.nulls != nil
	}
	return c.nulls != nil
}

// Slice returns a prefix view of the first n values: Range(0, n).
func (c *Column) Slice(n int) *Column { return c.Range(0, n) }

// Range returns a view of rows [lo, hi). The underlying vectors are shared
// with c, not copied, so this is O(1); callers must not append to either
// column afterwards. This is how the morsel-driven executor hands each
// worker its row window. A column in run form yields one in run form: the
// runs that overlap the window, clipped to it.
func (c *Column) Range(lo, hi int) *Column {
	if lo == 0 && hi >= c.Len() {
		return c
	}
	cp := &Column{name: c.name, typ: c.typ}
	if r := c.run; r != nil {
		first := r.at(lo)
		last := first
		if hi > lo {
			last = r.at(hi-1) + 1
		}
		ends := make([]int32, last-first)
		for x := range ends {
			ends[x] = min(r.ends[first+x], int32(hi)) - int32(lo)
		}
		cp.run = &runs{vals: r.vals.Range(first, last), ends: ends}
		return cp
	}
	switch c.typ {
	case Float64:
		cp.fls = c.fls[lo:hi]
	case String:
		cp.strs = c.strs[lo:hi]
	default:
		cp.ints = c.ints[lo:hi]
	}
	if c.nulls != nil {
		cp.nulls = c.nulls[lo:hi]
	}
	return cp
}

// Gather builds a new column containing the rows selected by sel, in order.
func (c *Column) Gather(sel []int32) *Column {
	out := New(c.name, c.typ)
	c = c.flat()
	switch c.typ {
	case Float64:
		out.fls = make([]float64, len(sel))
		for i, s := range sel {
			out.fls[i] = c.fls[s]
		}
	case String:
		out.strs = make([]string, len(sel))
		for i, s := range sel {
			out.strs[i] = c.strs[s]
		}
	default:
		out.ints = make([]int64, len(sel))
		for i, s := range sel {
			out.ints[i] = c.ints[s]
		}
	}
	if c.nulls != nil {
		out.nulls = make([]bool, len(sel))
		for i, s := range sel {
			out.nulls[i] = c.nulls[s]
		}
	}
	return out
}

// Repeat builds a new column holding, for each x in order, the value of row
// rows[x] repeated counts[x] times. It equals Gather over the expanded
// selection vector but returns the constant-run form: O(len(rows)) to build,
// whatever the counts add up to, and expanded only if a reader asks for a
// raw vector. Lazy extraction replicates a record's metadata once per sample
// with it.
func (c *Column) Repeat(rows []int32, counts []int) *Column {
	live := make([]int32, 0, len(rows))
	ends := make([]int32, 0, len(rows))
	total := 0
	for x, r := range rows {
		if counts[x] == 0 {
			continue
		}
		total += counts[x]
		live = append(live, r)
		ends = append(ends, int32(total))
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("column %s: Repeat to %d rows overflows int32 row indices", c.name, total))
	}
	return &Column{name: c.name, typ: c.typ, run: &runs{vals: c.Gather(live), ends: ends}}
}

// repeatRuns expands src, one value per run, to one value per row, filling
// each run by doubling copies — a memmove per run instead of an indexed
// load per value.
func repeatRuns[T any](src []T, ends []int32) []T {
	total := int32(0)
	if len(ends) > 0 {
		total = ends[len(ends)-1]
	}
	dst := make([]T, total)
	lo := int32(0)
	for x, hi := range ends {
		run := dst[lo:hi]
		run[0] = src[x]
		for filled := 1; filled < len(run); filled *= 2 {
			copy(run[filled:], run[:filled])
		}
		lo = hi
	}
	return dst
}

// AppendColumn appends all values of other (same type) to c.
func (c *Column) AppendColumn(other *Column) error {
	if c.typ != other.typ {
		return fmt.Errorf("column %s: cannot append %v column to %v column", c.name, other.typ, c.typ)
	}
	before := c.Len()
	n := other.Len()
	other = other.flat()
	switch c.typ {
	case Float64:
		c.fls = append(c.fls, other.fls...)
	case String:
		c.strs = append(c.strs, other.strs...)
	default:
		c.ints = append(c.ints, other.ints...)
	}
	if c.nulls != nil || other.nulls != nil {
		if c.nulls == nil {
			c.nulls = make([]bool, before)
		}
		if other.nulls == nil {
			c.nulls = append(c.nulls, make([]bool, n)...)
		} else {
			c.nulls = append(c.nulls, other.nulls...)
		}
	}
	return nil
}

// Bytes estimates the in-memory footprint of the column's data vectors,
// used by the warehouse to report storage sizes (experiment E3). A column in
// run form reports what its rows take expanded, which is what it holds once
// any reader has asked for a raw vector.
func (c *Column) Bytes() int64 {
	if r := c.run; r != nil {
		perRow := int64(8)
		if c.typ == String {
			perRow = 16 // string header
		}
		if r.vals.nulls != nil {
			perRow++
		}
		n := int64(c.Len()) * perRow
		lo := int32(0)
		for x, s := range r.vals.strs {
			n += int64(len(s)) * int64(r.ends[x]-lo)
			lo = r.ends[x]
		}
		return n
	}
	var n int64
	n += int64(len(c.ints)) * 8
	n += int64(len(c.fls)) * 8
	for _, s := range c.strs {
		n += int64(len(s)) + 16 // string header
	}
	n += int64(len(c.nulls))
	return n
}

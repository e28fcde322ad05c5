package column

import (
	"fmt"
	"strings"
)

// Batch is an ordered set of equal-length columns — the unit of data flow
// between execution operators (a relation fragment).
type Batch struct {
	cols   []*Column
	byName map[string]int
}

// NewBatch assembles columns into a batch. All columns must have the same
// length and distinct names.
func NewBatch(cols ...*Column) (*Batch, error) {
	b := &Batch{byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := b.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// MustNewBatch is NewBatch panicking on error, for statically correct
// construction sites (tests, catalog bootstrap).
func MustNewBatch(cols ...*Column) *Batch {
	b, err := NewBatch(cols...)
	if err != nil {
		panic(err)
	}
	return b
}

// AddColumn appends a column to the batch.
func (b *Batch) AddColumn(c *Column) error {
	if len(b.cols) > 0 && c.Len() != b.NumRows() {
		return fmt.Errorf("column: batch rows=%d, column %s has %d", b.NumRows(), c.Name(), c.Len())
	}
	if _, dup := b.byName[c.Name()]; dup {
		return fmt.Errorf("column: duplicate column %q in batch", c.Name())
	}
	if b.byName == nil {
		b.byName = make(map[string]int)
	}
	b.byName[c.Name()] = len(b.cols)
	b.cols = append(b.cols, c)
	return nil
}

// NumRows returns the row count (0 for an empty batch).
func (b *Batch) NumRows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns the column with the given name.
func (b *Batch) Col(name string) (*Column, bool) {
	i, ok := b.byName[name]
	if !ok {
		return nil, false
	}
	return b.cols[i], true
}

// ColAt returns the i-th column.
func (b *Batch) ColAt(i int) *Column { return b.cols[i] }

// Names returns the column names in order.
func (b *Batch) Names() []string {
	out := make([]string, len(b.cols))
	for i, c := range b.cols {
		out[i] = c.Name()
	}
	return out
}

// Select returns a batch of b's columns named in names, in that order,
// sharing their vectors with b (no copying); names b lacks are skipped.
func (b *Batch) Select(names []string) *Batch {
	out := &Batch{byName: make(map[string]int, len(names))}
	for _, name := range names {
		if i, ok := b.byName[name]; ok {
			out.byName[name] = len(out.cols)
			out.cols = append(out.cols, b.cols[i])
		}
	}
	return out
}

// Slice returns a prefix view of the first n rows. Column vectors are
// shared with b (O(1), no copying); callers must not append to either batch
// afterwards. This is how LIMIT avoids a full gather.
func (b *Batch) Slice(n int) *Batch {
	if n >= b.NumRows() {
		return b
	}
	out := &Batch{byName: make(map[string]int, len(b.cols))}
	for _, c := range b.cols {
		sc := c.Slice(n)
		out.byName[sc.Name()] = len(out.cols)
		out.cols = append(out.cols, sc)
	}
	return out
}

// Range returns a view of rows [lo, hi). Column vectors are shared with b
// (O(1) per column, no copying); callers must not append to either batch
// afterwards. Morsel-driven execution evaluates predicates over such views.
func (b *Batch) Range(lo, hi int) *Batch {
	if lo == 0 && hi >= b.NumRows() {
		return b
	}
	out := &Batch{byName: make(map[string]int, len(b.cols))}
	for _, c := range b.cols {
		rc := c.Range(lo, hi)
		out.byName[rc.Name()] = len(out.cols)
		out.cols = append(out.cols, rc)
	}
	return out
}

// Gather builds a new batch of the selected rows.
func (b *Batch) Gather(sel []int32) *Batch {
	out := &Batch{byName: make(map[string]int, len(b.cols))}
	for _, c := range b.cols {
		gc := c.Gather(sel)
		out.byName[gc.Name()] = len(out.cols)
		out.cols = append(out.cols, gc)
	}
	return out
}

// AppendBatch appends other's rows; schemas must match by position and
// type (names of other are ignored).
func (b *Batch) AppendBatch(other *Batch) error {
	if len(b.cols) != len(other.cols) {
		return fmt.Errorf("column: append batch with %d columns to %d", len(other.cols), len(b.cols))
	}
	for i, c := range b.cols {
		if err := c.AppendColumn(other.cols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Row boxes the i-th row as values.
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.cols))
	for j, c := range b.cols {
		out[j] = c.Value(i)
	}
	return out
}

// Bytes estimates the in-memory footprint of all columns.
func (b *Batch) Bytes() int64 {
	var n int64
	for _, c := range b.cols {
		n += c.Bytes()
	}
	return n
}

// String renders the batch as an aligned table, for the demo REPL and
// debugging. Long batches are truncated.
func (b *Batch) String() string {
	const maxRows = 25
	var sb strings.Builder
	names := b.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	rows := b.NumRows()
	shown := rows
	if shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for r := 0; r < shown; r++ {
		cells[r] = make([]string, len(b.cols))
		for c, col := range b.cols {
			s := col.Value(r).String()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], v)
		}
		sb.WriteByte('\n')
	}
	writeRow(names)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for r := 0; r < shown; r++ {
		writeRow(cells[r])
	}
	if rows > shown {
		fmt.Fprintf(&sb, "... (%d rows total)\n", rows)
	}
	return sb.String()
}

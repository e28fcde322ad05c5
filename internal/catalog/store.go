package catalog

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/column"
)

// Store publishes the loaded contents of base tables, one batch per table.
// In eager mode all three tables are populated; in lazy mode only the two
// metadata tables are (mseed.data stays empty and is produced at query time
// by the lazy extraction operators).
//
// # Concurrency
//
// The tables, their sorted flags and their version are one immutable
// Snapshot behind one atomic pointer, and Snapshot is that pointer's load: a
// query takes one and reads it to the end, whatever is published meanwhile.
// Replace and ReplaceAll build the next Snapshot aside and swap it in; they
// serialize on a mutex that readers never take. Batches installed in a store
// are never mutated.
type Store struct {
	cat *Catalog
	// zones are the record zone maps. They are not part of a Snapshot: they
	// are monotone statistics keyed by (uri, mtime, size, seqno), never
	// query-visible data, so every snapshot benefits from entries collected
	// while an older one was being read.
	zones   *ZoneMaps
	writeMu sync.Mutex // serializes writers; readers never take it
	cur     atomic.Pointer[Snapshot]
}

// Snapshot is one published state of a Store: every table's batch, the
// sorted flags of every table installed by Replace or ReplaceAll, and the
// version. Nothing in it changes after publication.
type Snapshot struct {
	cat  *Catalog
	data map[string]*column.Batch
	// sorted holds, per installed table, its integer-family columns that are
	// null-free and non-decreasing over the whole batch. A join whose build
	// side is such a table, on such a column, finds each key's rows by
	// binary search instead of building a hash table.
	sorted map[string]map[string]bool
	// version counts publications, so two snapshots of one store with equal
	// versions are the same value — the key the warehouse result cache hangs
	// its validity on.
	version int64
}

// NewStore creates a store with an empty batch per catalog table.
func NewStore(cat *Catalog) *Store {
	sn := &Snapshot{cat: cat, data: make(map[string]*column.Batch), sorted: make(map[string]map[string]bool)}
	for _, t := range cat.Tables() {
		cols := make([]*column.Column, len(t.Columns))
		for i, cd := range t.Columns {
			cols[i] = column.New(cd.Name, cd.Type)
		}
		sn.data[t.Name] = column.MustNewBatch(cols...)
	}
	s := &Store{cat: cat, zones: NewZoneMaps()}
	s.cur.Store(sn)
	return s
}

// Catalog returns the schema registry.
func (s *Store) Catalog() *Catalog { return s.cat }

// Snapshot returns the published state. Queries execute against one, so a
// concurrent Refresh cannot swap tables out from under them mid-plan.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Zones returns the store's record zone-map collection.
func (s *Store) Zones() *ZoneMaps { return s.zones }

// Table returns the published batch of a base table.
func (s *Store) Table(name string) (*column.Batch, error) { return s.Snapshot().Table(name) }

// Bytes reports the in-memory footprint of the published tables.
func (s *Store) Bytes() int64 { return s.Snapshot().Bytes() }

// validate checks a batch against a table definition.
func validate(t *TableDef, b *column.Batch) error {
	if b.NumCols() != len(t.Columns) {
		return fmt.Errorf("catalog: %s has %d columns, batch has %d", t.Name, len(t.Columns), b.NumCols())
	}
	for i, cd := range t.Columns {
		c := b.ColAt(i)
		if c.Name() != cd.Name || c.Type() != cd.Type {
			return fmt.Errorf("catalog: %s column %d: batch has %s %v, want %s %v",
				t.Name, i, c.Name(), c.Type(), cd.Name, cd.Type)
		}
	}
	return nil
}

// Replace publishes a fully built batch for one table (bulk loading). The
// batch column names and types must match the definition.
func (s *Store) Replace(table string, b *column.Batch) error {
	return s.ReplaceAll(map[string]*column.Batch{table: b})
}

// ReplaceAll validates batches for several tables, records their sorted
// columns, and publishes them as one new Snapshot: a reader sees either
// every table before the call or every table after it, never a mix. Loads
// and refreshes commit through here, so queries cannot observe new files
// rows next to old records rows. A batch that fails validation publishes
// nothing.
func (s *Store) ReplaceAll(batches map[string]*column.Batch) error {
	data := make(map[string]*column.Batch, len(batches))
	sorted := make(map[string]map[string]bool, len(batches))
	for name, b := range batches {
		t, ok := s.cat.Table(name)
		if !ok {
			return fmt.Errorf("catalog: unknown table %q", name)
		}
		if err := validate(t, b); err != nil {
			return err
		}
		data[t.Name], sorted[t.Name] = b, sortedCols(b)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	old := s.cur.Load()
	next := &Snapshot{cat: s.cat, data: maps.Clone(old.data), sorted: maps.Clone(old.sorted), version: old.version + 1}
	maps.Copy(next.data, data)
	maps.Copy(next.sorted, sorted)
	s.cur.Store(next)
	return nil
}

// sortedCols returns the integer-family columns of b that are null-free and
// non-decreasing.
func sortedCols(b *column.Batch) map[string]bool {
	sorted := make(map[string]bool)
	for ci := 0; ci < b.NumCols(); ci++ {
		c := b.ColAt(ci)
		if c.Type().IntFamily() && !slices.Contains(c.Nulls(), true) && slices.IsSorted(c.Int64s()) {
			sorted[c.Name()] = true
		}
	}
	return sorted
}

// Version identifies the snapshot among its store's publications: equal
// versions imply identical table contents and sorted flags.
func (sn *Snapshot) Version() int64 { return sn.version }

// Table returns the batch of a base table.
func (sn *Snapshot) Table(name string) (*column.Batch, error) {
	t, ok := sn.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return sn.data[t.Name], nil
}

// Sorted reports whether col of table is an integer-family column, null-free
// and non-decreasing over the table's published batch. A table no Replace or
// ReplaceAll has installed yet (still empty) reads as unsorted.
func (sn *Snapshot) Sorted(table, col string) bool {
	t, ok := sn.cat.Table(table)
	return ok && sn.sorted[t.Name][col]
}

// Bytes reports the in-memory footprint of all tables.
func (sn *Snapshot) Bytes() int64 {
	var n int64
	for _, b := range sn.data {
		n += b.Bytes()
	}
	return n
}

// Rows reports the row count of a table (0 for unknown names).
func (sn *Snapshot) Rows(table string) int {
	t, ok := sn.cat.Table(table)
	if !ok {
		return 0
	}
	return sn.data[t.Name].NumRows()
}

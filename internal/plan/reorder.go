package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/sql"
)

// ReorderInfo describes a join-ordering decision for the \explain surface.
type ReorderInfo struct {
	SQLOrder  []string // scan labels in the order the SQL joined them
	Order     []string // the chosen order (== SQLOrder when not reordered)
	Estimates []int64  // estimated post-predicate rows, aligned with Order
	Reordered bool
}

// ReorderJoins reorders an explicit left-deep equi-join spine by estimated
// build-side cardinality: among the joins whose left keys are resolvable
// against the already-placed scans, the one with the smallest estimated
// (post-predicate, from table zone statistics) right side is placed first,
// so cheap selective builds shrink the intermediates the expensive ones
// probe. When the chosen order differs from the SQL order, every scan gains
// a RowID provenance column and a RestoreOrder node re-sequences (and
// re-projects) the spine output to exactly the SQL-order plan's rows and
// columns — downstream operators, float accumulation included, see
// bit-identical input. Plans without a qualifying spine (fewer than two
// joins, non-scan build sides, missing aliases) are returned unchanged.
//
// Interleaved residual filters (non-equi ON conjuncts) and the WHERE filter
// are hoisted above the reordered spine; per-scan pushed-down predicates
// travel with their scan.
func ReorderJoins(root Node, store *catalog.Store) (Node, *ReorderInfo) {
	// Peel the upper single-child operators down to the join spine.
	var path []Node
	cur := root
walk:
	for {
		switch x := cur.(type) {
		case *Limit:
			path = append(path, x)
			cur = x.Child
		case *Sort:
			path = append(path, x)
			cur = x.Child
		case *Project:
			path = append(path, x)
			cur = x.Child
		case *Aggregate:
			path = append(path, x)
			cur = x.Child
		default:
			break walk
		}
	}

	// Collect the spine: Filters and Joins down to the base Scan, with
	// every join's build side a Scan.
	var filters []*Filter
	var joins []*Join
	var base *Scan
	n := cur
spine:
	for {
		switch x := n.(type) {
		case *Filter:
			filters = append(filters, x)
			n = x.Child
		case *Join:
			if _, ok := x.R.(*Scan); !ok {
				return root, nil
			}
			joins = append(joins, x)
			n = x.L
		case *Scan:
			base = x
			break spine
		default:
			return root, nil
		}
	}
	if base == nil || len(joins) < 2 {
		return root, nil
	}
	// joins were collected top-down; flip to SQL (bottom-up) order.
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	rights := make([]*Scan, len(joins))
	for i, j := range joins {
		rights[i] = j.R.(*Scan)
	}

	// Every scan needs a distinct non-empty prefix so key ownership is
	// decidable (prefixes carry their trailing dot, so none can shadow
	// another).
	scans := append([]*Scan{base}, rights...)
	seen := make(map[string]bool, len(scans))
	for _, s := range scans {
		if s.Prefix == "" || seen[s.Prefix] {
			return root, nil
		}
		seen[s.Prefix] = true
	}
	ownerOf := func(col string) int {
		for i, s := range scans {
			if strings.HasPrefix(col, s.Prefix) {
				return i
			}
		}
		return -1
	}
	// deps[ji] = scan indices join ji's left keys resolve against.
	deps := make([][]int, len(joins))
	for ji, j := range joins {
		for _, lk := range j.LKeys {
			o := ownerOf(lk)
			if o < 0 {
				return root, nil
			}
			deps[ji] = append(deps[ji], o)
		}
	}

	est := make([]int64, len(joins))
	for ji, r := range rights {
		est[ji] = estimateScanRows(store, r)
	}

	// Greedy placement: smallest estimated build among the placeable joins,
	// ties broken by SQL order (deterministic).
	placed := make([]bool, len(scans))
	placed[0] = true
	var order []int
	for len(order) < len(joins) {
		best := -1
		for ji := range joins {
			if rights[ji] == nil || placedJoin(order, ji) {
				continue
			}
			ok := true
			for _, d := range deps[ji] {
				if !placed[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if best < 0 || est[ji] < est[best] {
				best = ji
			}
		}
		if best < 0 {
			return root, nil // unresolvable keys; keep the SQL order
		}
		order = append(order, best)
		placed[best+1] = true // scan index of joins[best].R
	}

	label := func(s *Scan) string {
		return strings.TrimSuffix(s.Prefix, ".") + "=" + s.Table
	}
	info := &ReorderInfo{
		SQLOrder:  []string{label(base)},
		Order:     []string{label(base)},
		Estimates: []int64{estimateScanRows(store, base)},
	}
	same := true
	for i, ji := range order {
		info.SQLOrder = append(info.SQLOrder, label(rights[i]))
		info.Order = append(info.Order, label(rights[ji]))
		info.Estimates = append(info.Estimates, est[ji])
		if ji != i {
			same = false
		}
	}
	if same {
		return root, info
	}
	info.Reordered = true

	// Projection pushdown: the rebuilt scans carry only the columns the
	// spine's consumer reads (spineNeeds covers the operators above the
	// spine, its filters, join keys and scan predicates), so the reordered
	// intermediates and the restore step never materialize columns nothing
	// reads.
	cat := store.Catalog()
	_, needed, narrow := spineNeeds(root)

	// Canonical output: the SQL-order plan's columns (each join drops its
	// own right keys), in SQL order — restricted to the needed set when
	// narrowing. A COUNT(*)-style query references nothing; keep one column
	// as the row-count carrier.
	var cols []string
	appendCols := func(s *Scan, rkeys []string) bool {
		t, ok := cat.Table(s.Table)
		if !ok {
			return false
		}
		drop := make(map[string]bool, len(rkeys))
		for _, k := range rkeys {
			drop[k] = true
		}
		for _, cd := range t.Columns {
			name := s.Prefix + cd.Name
			if drop[name] || (narrow && !needed[name]) {
				continue
			}
			cols = append(cols, name)
		}
		return true
	}
	if !appendCols(base, nil) {
		return root, nil
	}
	for i, j := range joins {
		if !appendCols(rights[i], j.RKeys) {
			return root, nil
		}
	}
	if len(cols) == 0 {
		if t, ok := cat.Table(base.Table); ok && len(t.Columns) > 0 {
			name := base.Prefix + t.Columns[0].Name
			needed[name] = true
			cols = append(cols, name)
		} else {
			return root, nil
		}
	}

	// Rebuild: provenance-carrying scan copies, joins in the chosen order,
	// hoisted filters, then the order/column restoration.
	rid := func(i int) string { return fmt.Sprintf("__rid.%d", i) }
	newScan := func(i int, s *Scan) *Scan {
		ns := &Scan{Table: s.Table, Prefix: s.Prefix, Preds: s.Preds, RowID: rid(i)}
		if narrow {
			if t, ok := cat.Table(s.Table); ok {
				for _, cd := range t.Columns {
					if name := s.Prefix + cd.Name; needed[name] {
						ns.Cols = append(ns.Cols, name)
					}
				}
			}
		}
		return ns
	}
	var node Node = newScan(0, base)
	for _, ji := range order {
		node = &Join{L: node, R: newScan(ji+1, rights[ji]), LKeys: joins[ji].LKeys, RKeys: joins[ji].RKeys}
	}
	var preds []sql.Expr
	for i := len(filters) - 1; i >= 0; i-- { // original application order
		preds = append(preds, filters[i].Preds...)
	}
	if len(preds) > 0 {
		node = &Filter{Child: node, Preds: preds}
	}

	// Provenance priority is SQL order: base first, then each SQL-order
	// build side.
	rids := []string{rid(0)}
	for i := range joins {
		rids = append(rids, rid(i+1))
	}
	node = &RestoreOrder{Child: node, RowIDs: rids, Cols: cols}

	// Re-hang the peeled upper operators.
	for i := len(path) - 1; i >= 0; i-- {
		switch x := path[i].(type) {
		case *Limit:
			node = &Limit{Child: node, N: x.N}
		case *Sort:
			node = &Sort{Child: node, Keys: x.Keys}
		case *Project:
			node = &Project{Child: node, Exprs: x.Exprs, Names: x.Names}
		case *Aggregate:
			node = &Aggregate{Child: node, GroupBy: x.GroupBy, Aggs: x.Aggs}
		}
	}
	return node, info
}

func placedJoin(order []int, ji int) bool {
	for _, o := range order {
		if o == ji {
			return true
		}
	}
	return false
}

// estimateScanRows estimates a scan's post-predicate cardinality from the
// table's zone statistics: the rows of the zone ranges that might pass every
// compiled check. Without statistics or eligible predicates the estimate is
// the table size. Estimates steer join ordering only; correctness never
// depends on them.
func estimateScanRows(store *catalog.Store, s *Scan) int64 {
	total := int64(store.Rows(s.Table))
	bz := store.TableZones(s.Table)
	stored, err := store.Table(s.Table)
	if bz == nil || err != nil || bz.Rows != stored.NumRows() {
		return total
	}
	checks := compileZoneChecks(s.Preds, s.Prefix, stored)
	if len(checks) == 0 {
		return total
	}
	_, _, skipped := keptSegments(bz, checks)
	if est := total - skipped; est > 0 {
		return est
	}
	return 0
}

// restoreOrder sorts in's rows lexicographically by the provenance columns
// and projects the canonical column set (dropping the provenance). The
// composite key is unique — one output row per source-row combination — so
// the permutation is total and deterministic.
func restoreOrder(in *column.Batch, rowIDs, cols []string) (*column.Batch, error) {
	keys := make([][]int64, len(rowIDs))
	for i, name := range rowIDs {
		c, ok := in.Col(name)
		if !ok {
			return nil, fmt.Errorf("plan: restore-order column %q missing", name)
		}
		keys[i] = c.Int64s()
	}
	n := in.NumRows()
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	sort.Slice(sel, func(a, b int) bool {
		ia, ib := sel[a], sel[b]
		for _, k := range keys {
			if k[ia] != k[ib] {
				return k[ia] < k[ib]
			}
		}
		return false
	})
	outCols := make([]*column.Column, len(cols))
	for i, name := range cols {
		c, ok := in.Col(name)
		if !ok {
			return nil, fmt.Errorf("plan: restore-order output column %q missing", name)
		}
		outCols[i] = c.Gather(sel)
	}
	return column.NewBatch(outCols...)
}

package plan

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// spineNeeds decides which columns a spine's consumer reads — the question
// narrowExtract asks before it narrows the LazyExtract. It walks root down
// the probe side of its spine and returns the leaf with every
// column name read on the way: Filter predicates, join keys, the predicates
// of the Scans passed, and the expressions of the lowest operator that
// redefines the output schema (Aggregate keys and arguments, else the
// Project list) — whatever sits above that operator reads its output, not
// the spine's. narrow is false when nothing redefines the schema: a bare
// spine's output is the query result (SELECT *, sorted or limited or not)
// and must keep its full canonical width.
func spineNeeds(root Node) (leaf Node, needed map[string]bool, narrow bool) {
	needed = make(map[string]bool)
	add := func(exprs ...sql.Expr) {
		for _, e := range exprs {
			sql.WalkColumnRefs(e, func(ref *sql.ColumnRef) { needed[ref.Name] = true })
		}
	}
	for n := root; ; {
		switch x := n.(type) {
		case *Limit:
			n = x.Child
		case *Sort:
			for _, k := range x.Keys {
				add(k.Expr)
			}
			n = x.Child
		case *Project:
			needed, narrow = make(map[string]bool), true
			add(x.Exprs...)
			n = x.Child
		case *Aggregate:
			needed, narrow = make(map[string]bool), true
			add(x.GroupBy...)
			for _, a := range x.Aggs {
				add(a.Arg)
			}
			n = x.Child
		case *Filter:
			add(x.Preds...)
			n = x.Child
		case *Join:
			for i := range x.LKeys {
				needed[x.LKeys[i]], needed[x.RKeys[i]] = true, true
			}
			if s, ok := x.R.(*Scan); ok {
				add(s.Preds...)
			}
			n = x.L
		case *Scan:
			add(x.Preds...)
			return x, needed, narrow
		default:
			return n, needed, narrow
		}
	}
}

// narrowExtract records on the plan's LazyExtract, when its spine ends in
// one, the dataview columns the query reads, in canonical order, and
// narrows its metadata subplan to match (narrowMeta). Cols stays nil (full
// width, metadata included) for a bare spine and whenever a reference
// under the F./R./D. aliases, or an unqualified one, is not an exact
// dataview column: that statement fails at run time, and it should fail
// against the same schema it always did. Names under any other alias
// belong to a join's build side. A query that reads nothing (COUNT(*))
// keeps the first column as its row-count carrier.
func narrowExtract(root Node, cat *catalog.Catalog) {
	leaf, needed, narrow := spineNeeds(root)
	le, ok := leaf.(*LazyExtract)
	if !ok || !narrow {
		return
	}
	view := catalog.DataviewColumns()
	cols := make([]string, 0, len(needed))
	for _, cd := range view {
		if needed[cd.Name] {
			cols = append(cols, cd.Name)
			delete(needed, cd.Name)
		}
	}
	for name := range needed {
		alias, _, qualified := strings.Cut(name, ".")
		if !qualified || alias == "F" || alias == "R" || alias == "D" {
			return
		}
	}
	if len(cols) == 0 {
		cols = append(cols, view[0].Name)
	}
	le.Cols = cols
	narrowMeta(le, cat)
}

// narrowMeta sets Cols on every Scan of le's metadata subplan: of its
// table's columns, in table order, those the subplan hands on (MetaCols),
// the join keys and the columns the subplan's filters read. A Scan's own
// predicates read from the full table and cost it no column.
func narrowMeta(le *LazyExtract, cat *catalog.Catalog) {
	needed := make(map[string]bool)
	for _, name := range le.MetaCols() {
		needed[name] = true
	}
	var scans []*Scan
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scans = append(scans, x)
		case *Filter:
			for _, p := range x.Preds {
				sql.WalkColumnRefs(p, func(ref *sql.ColumnRef) { needed[ref.Name] = true })
			}
		case *Join:
			for i := range x.LKeys {
				needed[x.LKeys[i]], needed[x.RKeys[i]] = true, true
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(le.Meta)
	for _, s := range scans {
		t, ok := cat.Table(s.Table)
		if !ok {
			continue
		}
		var cols []string
		for _, cd := range t.Columns {
			if needed[s.Prefix+cd.Name] {
				cols = append(cols, s.Prefix+cd.Name)
			}
		}
		if cols != nil {
			s.Cols = cols
		}
	}
}

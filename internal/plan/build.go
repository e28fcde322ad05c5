package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
)

// Plans is the output of Build: the executable plan plus the naive
// (pre-optimization) plan kept for trace display (demo point 4).
type Plans struct {
	Root  Node
	Naive Node
	Stmt  *sql.SelectStmt
	Mode  Mode
}

// Build turns a parsed statement into a logical plan for the given mode.
//
// For queries over mseed.dataview the view is expanded structurally and the
// compile-time reorganization of §3.1 is applied: predicates are classified
// as metadata predicates (over F.* and R.* columns) or data predicates
// (touching D.*), and the metadata predicates are pushed below the data
// access so they execute first. In Lazy and External modes the access to
// mseed.data becomes a LazyExtract node, narrowed to the dataview columns
// the operators above it read (LazyExtract.Cols); in Eager mode it is a
// join against the loaded table.
func Build(stmt *sql.SelectStmt, cat *catalog.Catalog, mode Mode) (*Plans, error) {
	naiveFrom, optFrom, err := buildFrom(stmt, cat, mode)
	if err != nil {
		return nil, err
	}

	// buildFrom already placed the WHERE filter on top of the naive plan.
	naive := naiveFrom

	root, err := buildUpper(stmt, optFrom)
	if err != nil {
		return nil, err
	}
	narrowExtract(root, cat)
	if mode == Lazy {
		markZoneAnswer(root)
	}
	naiveRoot, err := buildUpper(stmt, naive)
	if err != nil {
		return nil, err
	}
	return &Plans{Root: root, Naive: naiveRoot, Stmt: stmt, Mode: mode}, nil
}

// buildFrom resolves the FROM clause (plus WHERE pushdown) and returns the
// naive and optimized access plans.
func buildFrom(stmt *sql.SelectStmt, cat *catalog.Catalog, mode Mode) (naive, opt Node, err error) {
	conjuncts := sql.SplitConjuncts(stmt.Where)

	// The universal-table view gets the full lazy-ETL treatment.
	if v, ok := cat.View(stmt.From.Name); ok && len(stmt.Joins) == 0 {
		if v.Name != catalog.ViewDataview {
			return nil, nil, fmt.Errorf("plan: unknown view %q", stmt.From.Name)
		}
		return buildDataview(conjuncts, mode)
	}

	// Base tables (with optional explicit joins).
	if _, ok := cat.Table(stmt.From.Name); !ok {
		if _, isView := cat.View(stmt.From.Name); !isView {
			return nil, nil, fmt.Errorf("plan: unknown table or view %q", stmt.From.Name)
		}
		return nil, nil, fmt.Errorf("plan: view %q cannot be joined explicitly", stmt.From.Name)
	}
	if mode != Eager && tableIsData(cat, stmt.From.Name) {
		return nil, nil, fmt.Errorf("plan: %s is virtual in %v mode; query mseed.dataview instead", stmt.From.Name, mode)
	}

	type scanInfo struct {
		scan   *Scan
		prefix string
	}
	var scans []scanInfo
	addScan := func(ref sql.TableRef) (*Scan, error) {
		t, ok := cat.Table(ref.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Name)
		}
		if mode != Eager && t.Name == catalog.TableData {
			return nil, fmt.Errorf("plan: %s is virtual in %v mode; query mseed.dataview instead", t.Name, mode)
		}
		prefix := ""
		if ref.Alias != "" {
			prefix = ref.Alias + "."
		}
		s := &Scan{Table: t.Name, Prefix: prefix}
		scans = append(scans, scanInfo{scan: s, prefix: prefix})
		return s, nil
	}

	base, err := addScan(stmt.From)
	if err != nil {
		return nil, nil, err
	}
	var node Node = base
	var naiveNode Node = &Scan{Table: base.Table, Prefix: base.Prefix}

	for _, j := range stmt.Joins {
		right, err := addScan(j.Table)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, rest, err := splitJoinKeys(j.On, right.Prefix)
		if err != nil {
			return nil, nil, err
		}
		node = &Join{L: node, R: right, LKeys: lk, RKeys: rk}
		naiveNode = &Join{L: naiveNode, R: &Scan{Table: right.Table, Prefix: right.Prefix}, LKeys: lk, RKeys: rk}
		if len(rest) > 0 {
			node = &Filter{Child: node, Preds: rest}
			naiveNode = &Filter{Child: naiveNode, Preds: rest}
		}
	}

	// WHERE pushdown: a conjunct referencing columns of exactly one scan
	// (by alias prefix) moves into that scan; the rest filter above.
	var above []sql.Expr
	for _, c := range conjuncts {
		target := -1
		single := true
		sql.WalkColumnRefs(c, func(ref *sql.ColumnRef) {
			idx := -1
			for i, si := range scans {
				if si.prefix == "" && !strings.Contains(ref.Name, ".") ||
					si.prefix != "" && strings.HasPrefix(ref.Name, si.prefix) {
					idx = i
					break
				}
			}
			if idx < 0 {
				single = false
				return
			}
			if target == -1 {
				target = idx
			} else if target != idx {
				single = false
			}
		})
		if single && target >= 0 {
			scans[target].scan.Preds = append(scans[target].scan.Preds, c)
		} else {
			above = append(above, c)
		}
	}
	if len(above) > 0 {
		node = &Filter{Child: node, Preds: above}
	}
	if stmt.Where != nil {
		naiveNode = &Filter{Child: naiveNode, Preds: conjuncts}
	}
	return naiveNode, node, nil
}

func tableIsData(cat *catalog.Catalog, name string) bool {
	t, ok := cat.Table(name)
	return ok && t.Name == catalog.TableData
}

// buildDataview expands mseed.dataview and applies the metadata-first
// reorganization.
func buildDataview(conjuncts []sql.Expr, mode Mode) (naive, opt Node, err error) {
	scanF := func(preds []sql.Expr) *Scan { return &Scan{Table: catalog.TableFiles, Prefix: "F.", Preds: preds} }
	scanR := func(preds []sql.Expr) *Scan { return &Scan{Table: catalog.TableRecords, Prefix: "R.", Preds: preds} }
	scanD := func(preds []sql.Expr) *Scan { return &Scan{Table: catalog.TableData, Prefix: "D.", Preds: preds} }
	metaJoin := func(f, r Node) Node {
		return &Join{L: f, R: r, LKeys: []string{"F.file_id"}, RKeys: []string{"R.file_id"}}
	}
	dataJoin := func(meta, d Node) Node {
		return &Join{L: meta, R: d,
			LKeys: []string{"F.file_id", "R.seqno"}, RKeys: []string{"D.file_id", "D.seqno"}}
	}

	// Naive plan: no classification, filter sits on top of the expansion.
	naive = dataJoin(metaJoin(scanF(nil), scanR(nil)), scanD(nil))
	if len(conjuncts) > 0 {
		naive = &Filter{Child: naive, Preds: conjuncts}
	}

	// Classify conjuncts by the table prefixes they reference.
	var fPreds, rPreds, frPreds, dPreds []sql.Expr
	for _, c := range conjuncts {
		refs := prefixesOf(c)
		switch {
		case refs["D"] || refs["?"]:
			dPreds = append(dPreds, c) // anything unknown stays with the data side, conservatively
		case refs["F"] && refs["R"]:
			frPreds = append(frPreds, c)
		case refs["R"]:
			rPreds = append(rPreds, c)
		case refs["F"]:
			fPreds = append(fPreds, c)
		default: // no column references (constant predicate)
			dPreds = append(dPreds, c)
		}
	}

	switch mode {
	case Eager:
		meta := metaJoin(scanF(fPreds), scanR(rPreds))
		if len(frPreds) > 0 {
			meta = &Filter{Child: meta, Preds: frPreds}
		}
		// D-only single-column predicates could be pushed into the D scan;
		// they are kept above the join so that eager and lazy plans stay
		// structurally comparable above the data access.
		opt = dataJoin(meta, scanD(nil))
		if len(dPreds) > 0 {
			opt = &Filter{Child: opt, Preds: dPreds}
		}
	case Lazy:
		// Extension beyond the paper's demo queries (which carry explicit
		// R.start_time predicates for this purpose): sample-time predicates
		// imply record- and file-interval predicates, so derive them and
		// prune metadata even when the user wrote only D.sample_time.
		df, dr := deriveIntervalPreds(dPreds)
		meta := metaJoin(scanF(append(fPreds, df...)), scanR(append(rPreds, dr...)))
		if len(frPreds) > 0 {
			meta = &Filter{Child: meta, Preds: frPreds}
		}
		// Compile the zone-map admissibility test from the data predicates:
		// records whose collected sample-value zone cannot satisfy them are
		// skipped before any read or decode. Env.NoSkipping disables it.
		// The D.sample_time range predicates leave the Filter: extraction
		// cuts their window out of each record instead (CompileWindow).
		win, rest := CompileWindow(dPreds)
		opt = &LazyExtract{Meta: meta, DataPreds: dPreds, Prune: CompilePrune(dPreds), Window: win}
		if len(rest) > 0 {
			opt = &Filter{Child: opt, Preds: rest}
		}
	case External:
		// No metadata pruning: every file and record qualifies for
		// extraction; all predicates apply after the fact.
		ext := &LazyExtract{Meta: metaJoin(scanF(nil), scanR(nil))}
		opt = ext
		if len(conjuncts) > 0 {
			opt = &Filter{Child: ext, Preds: conjuncts}
		}
	default:
		return nil, nil, fmt.Errorf("plan: unknown mode %v", mode)
	}
	return naive, opt, nil
}

// prefixesOf collects the table-alias prefixes referenced by an expression:
// "F", "R", "D", or "?" for unqualified/unknown references.
func prefixesOf(e sql.Expr) map[string]bool {
	out := make(map[string]bool)
	sql.WalkColumnRefs(e, func(ref *sql.ColumnRef) {
		i := strings.IndexByte(ref.Name, '.')
		if i <= 0 {
			out["?"] = true
			return
		}
		p := ref.Name[:i]
		if p == "F" || p == "R" || p == "D" {
			out[p] = true
		} else {
			out["?"] = true
		}
	})
	return out
}

// splitJoinKeys decomposes an ON condition into equi-join key pairs
// (left-side key, right-side key) plus residual conjuncts. rightPrefix
// identifies which side a column belongs to.
func splitJoinKeys(on sql.Expr, rightPrefix string) (lk, rk []string, rest []sql.Expr, err error) {
	for _, c := range sql.SplitConjuncts(on) {
		b, ok := c.(*sql.Binary)
		if ok && b.Op == sql.OpEq {
			lref, lok := b.L.(*sql.ColumnRef)
			rref, rok := b.R.(*sql.ColumnRef)
			if lok && rok {
				switch {
				case strings.HasPrefix(rref.Name, rightPrefix) && !strings.HasPrefix(lref.Name, rightPrefix):
					lk = append(lk, lref.Name)
					rk = append(rk, rref.Name)
					continue
				case strings.HasPrefix(lref.Name, rightPrefix) && !strings.HasPrefix(rref.Name, rightPrefix):
					lk = append(lk, rref.Name)
					rk = append(rk, lref.Name)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if len(lk) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: join ON %s has no equi-join condition", on)
	}
	return lk, rk, rest, nil
}

// buildUpper stacks aggregation, projection, ordering and limit over the
// FROM/WHERE plan.
func buildUpper(stmt *sql.SelectStmt, from Node) (Node, error) {
	node := from

	hasAgg := stmt.HasAggregates() || len(stmt.GroupBy) > 0
	if hasAgg {
		// Collect aggregate calls from the select list and ORDER BY.
		var specs []exec.AggSpec
		seen := make(map[string]bool)
		collect := func(e sql.Expr) {
			walkCalls(e, func(c *sql.Call) {
				if !c.IsAggregate() {
					return
				}
				name := c.String()
				if seen[name] {
					return
				}
				seen[name] = true
				spec := exec.AggSpec{Func: c.Func, Star: c.Star, Distinct: c.Distinct, OutName: name}
				if !c.Star {
					spec.Arg = c.Args[0]
				}
				specs = append(specs, spec)
			})
		}
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			collect(it.Expr)
		}
		for _, o := range stmt.OrderBy {
			collect(o.Expr)
		}
		// Every non-aggregate select item must be a group-by expression.
		groupSet := make(map[string]bool, len(stmt.GroupBy))
		for _, g := range stmt.GroupBy {
			groupSet[g.String()] = true
		}
		for _, it := range stmt.Items {
			if exprIsAggFree(it.Expr) && !groupSet[it.Expr.String()] {
				return nil, fmt.Errorf("plan: %s must appear in GROUP BY or an aggregate", it.Expr)
			}
		}

		node = &Aggregate{Child: node, GroupBy: stmt.GroupBy, Aggs: specs}
	}

	// Projection: rewrite aggregate calls and group expressions into
	// references to the aggregate output columns.
	star := len(stmt.Items) == 1 && stmt.Items[0].Star
	var projNames []string
	if !star {
		exprs := make([]sql.Expr, len(stmt.Items))
		projNames = make([]string, len(stmt.Items))
		for i, it := range stmt.Items {
			e := it.Expr
			if hasAgg {
				e = rewriteAggRefs(e)
			}
			exprs[i] = e
			if it.Alias != "" {
				projNames[i] = it.Alias
			} else {
				projNames[i] = it.Expr.String()
			}
		}
		node = &Project{Child: node, Exprs: exprs, Names: projNames}
	} else if len(stmt.Items) != 1 {
		return nil, fmt.Errorf("plan: SELECT * cannot be combined with other select items")
	}

	if len(stmt.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			e := o.Expr
			if hasAgg {
				e = rewriteAggRefs(e)
			}
			// An ORDER BY expression matching a select item (by text or by
			// alias) sorts on the projected column.
			if !star {
				for j, it := range stmt.Items {
					if it.Alias == o.Expr.String() || it.Expr.String() == o.Expr.String() {
						e = &sql.ColumnRef{Name: projNames[j]}
						break
					}
				}
			}
			keys[i] = exec.SortKey{Expr: e, Desc: o.Desc}
		}
		node = &Sort{Child: node, Keys: keys}
	}

	if stmt.Limit >= 0 {
		node = &Limit{Child: node, N: stmt.Limit}
	}
	return node, nil
}

// markZoneAnswer sets ZoneAnswer on a LazyExtract under an ungrouped
// aggregate — through at most a Filter whose conjuncts all fold into Prune —
// of COUNT(*) and of bare, non-DISTINCT D.sample_value only.
func markZoneAnswer(root Node) {
	pp, ok := decompose(root)
	if !ok || pp.agg == nil || len(pp.agg.GroupBy) > 0 || len(pp.ops) > 1 {
		return
	}
	leaf, ok := pp.leaf.(*LazyExtract)
	for _, op := range pp.ops {
		if f, isFilter := op.(*Filter); !ok || !isFilter || !leaf.Prune.foldsAll(f.Preds) {
			return
		}
	}
	need := map[string]bool{}
	for _, a := range pp.agg.Aggs {
		if ref, isRef := a.Arg.(*sql.ColumnRef); !ok || !a.Star && (a.Distinct || !isRef || ref.Name != "D.sample_value") {
			return
		}
		need[a.Func] = true
	}
	for _, f := range []string{"COUNT", "MIN", "MAX", "SUM"} {
		if need[f] || need["AVG"] && (f == "COUNT" || f == "SUM") {
			leaf.ZoneAnswer = append(leaf.ZoneAnswer, f)
		}
	}
}

func walkCalls(e sql.Expr, fn func(*sql.Call)) {
	switch x := e.(type) {
	case *sql.Call:
		fn(x)
		for _, a := range x.Args {
			walkCalls(a, fn)
		}
	case *sql.Binary:
		walkCalls(x.L, fn)
		walkCalls(x.R, fn)
	case *sql.Unary:
		walkCalls(x.X, fn)
	}
}

func exprIsAggFree(e sql.Expr) bool {
	free := true
	walkCalls(e, func(c *sql.Call) {
		if c.IsAggregate() {
			free = false
		}
	})
	return free
}

// rewriteAggRefs replaces aggregate calls with references to their output
// columns (named by the call's SQL text) for evaluation above an Aggregate
// node.
func rewriteAggRefs(e sql.Expr) sql.Expr {
	switch x := e.(type) {
	case *sql.Call:
		if x.IsAggregate() {
			return &sql.ColumnRef{Name: x.String()}
		}
		return x
	case *sql.Binary:
		return &sql.Binary{Op: x.Op, L: rewriteAggRefs(x.L), R: rewriteAggRefs(x.R)}
	case *sql.Unary:
		return &sql.Unary{Op: x.Op, X: rewriteAggRefs(x.X)}
	case *sql.IsNull:
		return &sql.IsNull{X: rewriteAggRefs(x.X), Not: x.Not}
	default:
		return e
	}
}

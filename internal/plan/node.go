// Package plan implements logical query plans: construction from a parsed
// SELECT statement, the compile-time reorganization that applies metadata
// predicates first (§3.1 of the paper), the run-time rewrite hook through
// which lazy extraction operators are injected, and plan execution over the
// operator library of internal/exec.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
)

// Mode selects how actual data is provided during execution.
type Mode int

const (
	// Eager executes against fully loaded base tables (traditional ETL).
	Eager Mode = iota
	// Lazy loads only metadata up front; actual data is extracted at query
	// time for exactly the records surviving the metadata predicates.
	Lazy
	// External models SQL/MED-style external tables (the NoDB-adjacent
	// baseline of §2): data lives in files and is extracted at query time,
	// but without metadata pruning — every query touches every file.
	External
)

func (m Mode) String() string {
	switch m {
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	case External:
		return "external"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Node is one logical plan operator.
type Node interface {
	// Describe renders the node's own line for plan display.
	Describe() string
	// Children returns input plans, outermost first.
	Children() []Node
}

// Scan reads a base table from the store, optionally renaming columns with
// an alias prefix ("F." etc.) and applying pushed-down predicates.
type Scan struct {
	Table  string
	Prefix string     // "" or "F." / "R." / "D." / "<alias>."
	Preds  []sql.Expr // conjuncts over the (prefixed) scan output
	// Cols, when non-nil, lists the (prefixed) columns the scan hands on,
	// in table order: it reads those and the columns of its Preds, and
	// drops the predicate-only ones once the predicates have run. Build
	// sets it on the metadata scans under a narrowed LazyExtract
	// (narrowMeta); nil means every column. The tests' operator-at-a-time
	// reference ignores it.
	Cols []string
}

func (s *Scan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scan %s", s.Table)
	if s.Prefix != "" {
		fmt.Fprintf(&sb, " AS %s", strings.TrimSuffix(s.Prefix, "."))
	}
	if len(s.Preds) > 0 {
		fmt.Fprintf(&sb, " WHERE %s", exprList(s.Preds))
	}
	if s.Cols != nil {
		fmt.Fprintf(&sb, " (columns: %s)", strings.Join(s.Cols, ", "))
	}
	return sb.String()
}
func (s *Scan) Children() []Node { return nil }

// Join is an inner equi-join.
type Join struct {
	L, R  Node
	LKeys []string
	RKeys []string
}

func (j *Join) Describe() string { return "HashJoin ON " + j.on() }

// on renders the join condition.
func (j *Join) on() string {
	pairs := make([]string, len(j.LKeys))
	for i := range j.LKeys {
		pairs[i] = j.LKeys[i] + " = " + j.RKeys[i]
	}
	return strings.Join(pairs, " AND ")
}
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Filter keeps rows satisfying every predicate.
type Filter struct {
	Child Node
	Preds []sql.Expr
}

func (f *Filter) Describe() string { return "Filter " + exprList(f.Preds) }
func (f *Filter) Children() []Node { return []Node{f.Child} }

// LazyExtract is the run-time rewrite site (§3.1): its metadata subplan is
// executed first; then, with the qualifying (file, record) set known, the
// rewriting operator injects per-record operators that either read the
// cache or extract from source files. Its output is the de-normalized
// universal table — one row per sample, the record's metadata replicated
// beside D.sample_time and D.sample_value — restricted to Cols.
type LazyExtract struct {
	Meta Node
	// Cols, when non-nil, lists the universal-table columns the query reads,
	// in canonical (catalog.DataviewColumns) order, set by Build from the
	// operators above (see narrowExtract). It narrows the metadata subplan
	// too: Meta delivers only MetaCols — what extraction itself reads plus
	// the F.* and R.* columns of Cols — and Build narrows its scans to those,
	// the join keys and the columns of the metadata filters (narrowMeta).
	// The tests' operator-at-a-time reference ignores Cols and drains the
	// stream at full width, which is what the bit-identity tests compare
	// against.
	Cols []string
	// DataPreds are predicates over D.* columns, applied after extraction —
	// by the enclosing Filter, or, for the ones Window lifted, by the
	// extraction itself; recorded here for plan display.
	DataPreds []sql.Expr
	// Prune is the zone-map admissibility test compiled from DataPreds:
	// records whose zone entry fails it are skipped before any ReadAt or
	// decode. Disabled at run time by Env.NoSkipping.
	Prune *PruneRange
	// Window, when non-nil, holds the D.sample_time conjuncts lifted out of
	// the enclosing Filter: a pipeline's extraction delivers only the
	// samples inside it, cut at the record edges, and the tests'
	// reference extracts every sample and applies Window.Preds row by row.
	Window *SampleWindow
	// ZoneAnswer, set by Build (markZoneAnswer), lets the extraction take
	// the records Prune and Window wholly admit from their zones instead;
	// Env.NoSkipping turns that off.
	ZoneAnswer ZoneAnswer
}

// ZoneAnswer lists the partial aggregates an ungrouped aggregate takes from
// zones, in the order COUNT, MIN, MAX, SUM (AVG needs COUNT and SUM).
type ZoneAnswer []string

func (l *LazyExtract) Describe() string {
	s := "LazyExtract"
	if len(l.DataPreds) > 0 {
		s += " (data predicates: " + exprList(l.DataPreds) + ")"
		if l.Prune != nil {
			s += " (zone prune: " + l.Prune.String() + ")"
		}
	}
	if l.Window != nil {
		s += " (sample window: " + l.Window.String() + ")"
	}
	if l.ZoneAnswer != nil {
		s += " (zone answer: " + strings.Join(l.ZoneAnswer, ", ") + ")"
	}
	if l.Cols != nil {
		s += " (columns: " + strings.Join(l.Cols, ", ") + ")"
	}
	return s
}
func (l *LazyExtract) Children() []Node { return []Node{l.Meta} }

// extractionCols are the metadata columns extraction itself reads: which
// file and record, where the record starts, and the sizes that let it
// pre-size runs and coalesce reads.
var extractionCols = []string{"F.uri", "F.record_length", "R.seqno", "R.num_samples", "R.file_offset"}

// MetaCols lists, in canonical order, the columns the metadata subplan
// delivers to extraction: extractionCols and the F.* and R.* columns of
// Cols. nil when Cols is nil: the full width.
func (l *LazyExtract) MetaCols() []string {
	if l.Cols == nil {
		return nil
	}
	var out []string
	for _, cd := range catalog.DataviewColumns() {
		if slices.Contains(extractionCols, cd.Name) || !strings.HasPrefix(cd.Name, "D.") && slices.Contains(l.Cols, cd.Name) {
			out = append(out, cd.Name)
		}
	}
	return out
}

// Aggregate groups and aggregates.
type Aggregate struct {
	Child   Node
	GroupBy []sql.Expr
	Aggs    []exec.AggSpec
}

func (a *Aggregate) Describe() string {
	var sb strings.Builder
	sb.WriteString("Aggregate")
	if len(a.GroupBy) > 0 {
		sb.WriteString(" GROUP BY " + exprList(a.GroupBy))
	}
	names := make([]string, len(a.Aggs))
	for i, ag := range a.Aggs {
		names[i] = ag.OutName
	}
	sb.WriteString(" [" + strings.Join(names, ", ") + "]")
	return sb.String()
}
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// Project evaluates the select list.
type Project struct {
	Child Node
	Exprs []sql.Expr
	Names []string
}

func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		if p.Names[i] != e.String() {
			parts[i] = e.String() + " AS " + p.Names[i]
		} else {
			parts[i] = e.String()
		}
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}
func (p *Project) Children() []Node { return []Node{p.Child} }

// Sort orders rows.
type Sort struct {
	Child Node
	Keys  []exec.SortKey
}

func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Limit caps the row count.
type Limit struct {
	Child Node
	N     int64
}

func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }
func (l *Limit) Children() []Node { return []Node{l.Child} }

func exprList(exprs []sql.Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

// Render draws the plan tree as indented text, one node per line.
func Render(n Node) string {
	var sb strings.Builder
	renderInto(&sb, n, 0)
	return sb.String()
}

func renderInto(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Describe())
	sb.WriteByte('\n')
	for _, c := range n.Children() {
		renderInto(sb, c, depth+1)
	}
}

package plan

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sql"
)

// ExtractSource is implemented by the lazy ETL engine: given the metadata
// rows that survived the metadata predicates (columns F.* and R.*), deliver
// the universal table — those rows replicated once per sample, with the D.*
// columns attached — as a morsel stream, overlapping read+decode of run N+1
// with compute over run N. It is the only way a plan extracts: pipelines
// consume the stream morsel by morsel, ExtractAll drains it into one batch.
// The source reports each injected operator (cache read or file extraction)
// to the observer — that is the run-time plan modification of §3.1 made
// visible. Implementations may exploit additional metadata columns when
// present (R.num_samples to size prefetch charges, F.record_length to
// coalesce adjacent misses into run-granular reads) but must not require
// them.
//
// cols is LazyExtract.Cols: the morsels are whole batches (no selection
// vector) carrying exactly the columns of ExtractProto(meta, cols), nil
// meaning the full width.
//
// prune, when non-nil, is the zone-map admissibility test for the records'
// sample values: the source may drop records whose collected zone entry
// fails it (never reading nor decoding them), because the enclosing Filter
// would delete every one of their rows anyway. nil means extract everything.
//
// window, when non-nil, is LazyExtract.Window: the morsels carry only the
// samples whose time lies inside it, exactly the rows its Preds would keep,
// in the same order. Records are still decoded and cached whole. nil means
// every sample.
//
// morselRows and width are the consuming pool's morsel size and worker
// count: the source sizes its read-ahead from width (one prefetch worker per
// pool worker), so extraction has no parallelism setting of its own.
// Prefetch buffers are charged to led (nil = unlimited), so overlap
// degrades to synchronous extraction under budget pressure rather than
// blowing it.
type ExtractSource interface {
	ExtractStream(meta *column.Batch, cols []string, prune *PruneRange, window *SampleWindow, obs Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error)
}

// Observer is everything one query's execution reports, plan operators and
// the ExtractSource alike. It has two implementations: NopObserver, and the
// warehouse's per-query observer, which files operators and events in the
// query's trace and the operation log, scan tallies in Trace.Scans, and
// stamps in the result cache's re-validation key. Implementations must be
// safe for concurrent use: lazy extraction reports from its prefetch
// workers as well as from its consumer.
type Observer interface {
	// InjectedOps records the operators one step of the run-time rewrite
	// injected (e.g. "CacheRead" or "ExtractFile"), one per human-readable
	// detail, in order; an empty details slice records nothing.
	InjectedOps(kind string, details []string)
	// Event records a general operational log entry.
	Event(op, detail string)
	// ScanReport records one data access's skip accounting (the \explain
	// surface).
	ScanReport(r ScanReport)
	// FileStamps records the source files a data access's output depends
	// on.
	FileStamps(stamps []FileStamp)
	// TraceSpan is the span instrumented code (extraction read/decode)
	// attaches its spans under; nil when the query is not traced, which
	// every Span method treats as a no-op.
	TraceSpan() *obs.Span
}

// NopObserver discards all observations.
type NopObserver struct{}

func (NopObserver) InjectedOps(kind string, details []string) {}
func (NopObserver) Event(op, detail string)                   {}
func (NopObserver) ScanReport(r ScanReport)                   {}
func (NopObserver) FileStamps(stamps []FileStamp)             {}
func (NopObserver) TraceSpan() *obs.Span                      { return nil }

// Env carries everything plan execution needs.
type Env struct {
	Store  *catalog.Store
	Source ExtractSource // required for Lazy/External plans
	Obs    Observer      // defaults to NopObserver
	// Pool is the morsel-driven worker pool operators run on. nil (or a
	// 1-worker pool) selects the serial engine; output is bit-identical
	// either way.
	Pool *exec.Pool
	// Mem is the query's memory context: the budget ledger join builds and
	// the aggregation sink reserve working-set bytes from, and the
	// spill-file directory a join build degrades to under pressure. The
	// budget never selects an engine; it decides which joins break the
	// pipeline (see pipeline.go). nil means unlimited memory (no spilling).
	// Output is bit-identical at every budget.
	Mem *exec.QueryMem
	// Stats, when non-nil, accumulates operator-level counters (join build
	// partitions, probe volumes, sort strategies, spill activity) across
	// queries.
	Stats *ExecStats
	// NoPipeline runs every plan on executeNode, the operator-at-a-time
	// reference: no morsels, no fusion, serial filter and aggregate. It is
	// the bit-identity oracle the push pipelines are tested against and is
	// set by tests and benchmarks only.
	NoPipeline bool
	// NoSkipping disables every statistics-driven shortcut — record
	// zone-map pruning before extraction, batch zone-range skipping on
	// table scans and index-probed joins — making this Env the oracle the
	// skipping paths are tested against.
	NoSkipping bool
	// Trace, when non-nil, collects per-operator timing spans under it.
	// nil (tracing disabled) costs nothing: every span method no-ops on
	// nil. Tracing never changes results — only observes them.
	Trace *obs.Span
}

func (e *Env) obs() Observer {
	if e.Obs == nil {
		return NopObserver{}
	}
	return e.Obs
}

// Execute runs the plan to completion and returns the result batch. Every
// plan with work to fuse — a predicate, a join, an aggregate, a lazy
// extraction — runs as a push pipeline (see pipeline.go), whatever the
// memory budget. executeNode serves only bare table reads, which have
// nothing to fuse, and everything when Env.NoPipeline is set.
func Execute(n Node, env *Env) (*column.Batch, error) {
	if !env.NoPipeline {
		if pp, ok := decompose(n); ok && pp.fuses() {
			return executePipelined(pp, env)
		}
	}
	return executeNode(n, env)
}

// scanBase loads a Scan's table and applies its column prefix, without
// evaluating predicates.
func scanBase(x *Scan, env *Env) (*column.Batch, error) {
	b, err := env.Store.Table(x.Table)
	if err != nil {
		return nil, err
	}
	if x.Prefix == "" {
		return b, nil
	}
	cols := make([]*column.Column, b.NumCols())
	for i := range cols {
		c := b.ColAt(i)
		cols[i] = c.WithName(x.Prefix + c.Name())
	}
	return column.NewBatch(cols...)
}

// executeNode is the operator-at-a-time reference engine: every operator
// consumes a fully materialized input batch and produces one.
func executeNode(n Node, env *Env) (*column.Batch, error) {
	obs := env.obs()
	switch x := n.(type) {
	case *Scan:
		sp := env.Trace.StartChild("scan " + x.Table)
		b, err := scanBase(x, env)
		if err != nil {
			return nil, err
		}
		rows := b.NumRows()
		b, err = exec.Filter(b, x.Preds)
		if err != nil {
			return nil, fmt.Errorf("plan: scan %s: %w", x.Table, err)
		}
		sp.AddRows(int64(b.NumRows()))
		sp.End()
		if len(x.Preds) > 0 {
			obs.Event("scan", fmt.Sprintf("%s: %d of %d rows pass %s", x.Table, b.NumRows(), rows, exprList(x.Preds)))
		} else {
			obs.Event("scan", fmt.Sprintf("%s: %d rows", x.Table, rows))
		}
		return b, nil

	case *Join:
		l, err := Execute(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Execute(x.R, env)
		if err != nil {
			return nil, err
		}
		sp := env.Trace.StartChild("join " + x.Describe())
		out, js, err := env.Pool.HashJoinMem(env.Mem, l, r, x.LKeys, x.RKeys)
		if err != nil {
			return nil, err
		}
		sp.AddRows(int64(out.NumRows()))
		sp.End()
		reportJoin(env, x, r.NumRows(), js)
		return out, nil

	case *Filter:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		return filterBatch(in, x.Preds, env)

	case *LazyExtract:
		meta, prune, err := lazyMeta(x, env)
		if err != nil {
			return nil, err
		}
		out, err := ExtractAll(env.Source, meta, nil, prune, obs, env.Pool.Workers())
		if err != nil {
			return nil, err
		}
		extractEvent(obs, int64(out.NumRows()), out.NumCols(), 0, nil, 0)
		if x.Window == nil {
			return out, nil
		}
		// The reference cuts no record: it keeps the conjuncts the window
		// lifted sample by sample, as the Filter they came from did.
		return filterBatch(out, x.Window.Preds, env)

	case *Aggregate:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		sp := env.Trace.StartChild("aggregate")
		out, err := exec.Aggregate(in, x.GroupBy, x.Aggs)
		if err != nil {
			return nil, err
		}
		sp.AddRows(int64(out.NumRows()))
		sp.End()
		aggregateEvent(obs, int64(in.NumRows()), 0, out.NumRows())
		return out, nil

	case *Project, *Sort, *Limit:
		in, err := Execute(n.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return applyPost(n, in, env)

	default:
		return nil, fmt.Errorf("plan: unknown node %T", n)
	}
}

// filterBatch is the reference's filter: the rows of in that satisfy every
// predicate, traced and logged.
func filterBatch(in *column.Batch, preds []sql.Expr, env *Env) (*column.Batch, error) {
	sp := env.Trace.StartChild("filter " + exprList(preds))
	out, err := exec.Filter(in, preds)
	if err != nil {
		return nil, err
	}
	sp.AddRows(int64(out.NumRows()))
	sp.End()
	env.obs().Event("filter", fmt.Sprintf("%s: %d -> %d rows", exprList(preds), in.NumRows(), out.NumRows()))
	return out, nil
}

// lazyMeta is step 1 of a lazy extraction (§3.1): execute the metadata part
// of the plan and hand back the qualifying records plus the zone-map prune
// test the source may apply. The metadata operators' spans group under a
// "metadata" child so the trace separates the metadata phase from the
// extraction it triggers. Step 2 is the caller's: the rewriting operator
// injects cache-read / extract operators for exactly those records, minus
// the ones the zone maps prove irrelevant.
func lazyMeta(x *LazyExtract, env *Env) (*column.Batch, *PruneRange, error) {
	msp := env.Trace.StartChild("metadata")
	menv := *env
	menv.Trace = msp
	meta, err := Execute(x.Meta, &menv)
	if err != nil {
		return nil, nil, err
	}
	msp.AddRows(int64(meta.NumRows()))
	msp.End()
	env.obs().Event("rewrite", fmt.Sprintf("metadata plan yields %d qualifying records; invoking run-time plan rewriting operator", meta.NumRows()))
	if env.Source == nil {
		return nil, nil, fmt.Errorf("plan: LazyExtract requires an ExtractSource in the environment")
	}
	if env.NoSkipping {
		return meta, nil, nil
	}
	return meta, x.Prune, nil
}

// ExtractAll materializes the universal table of meta in one batch: one
// stream drained as a single unbounded morsel, with nothing reserved from any
// ledger, and every column flat — the metadata columns the stream hands over
// as constant runs are expanded here. cols lists the columns, as
// ExtractSource takes them (nil: the full width). It is the extraction of
// the operator-at-a-time reference — the same stream the pipelines consume,
// minus the morsels, the narrowing, the run form, the sample window and the
// fusion — so the reference's operators walk rows where the pipelines' may
// walk runs, and it filters sample times where the pipelines' extraction
// cuts records; and it is the eager load's mseed.data. width is the
// caller's pool width, passed through to the stream.
func ExtractAll(src ExtractSource, meta *column.Batch, cols []string, prune *PruneRange, obs Observer, width int) (*column.Batch, error) {
	s, err := src.ExtractStream(meta, cols, prune, nil, obs, math.MaxInt, width, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	m, ok, err := s.Next()
	if err != nil {
		return nil, err
	}
	if !ok { // no qualifying record: the stream ends before its first morsel
		return ExtractProto(meta, cols)
	}
	flat := make([]*column.Column, m.B.NumCols())
	for i := range flat {
		flat[i] = flatten(m.B.ColAt(i))
	}
	return column.NewBatch(flat...)
}

// flatten returns c with one value per row: c itself, or the expansion of a
// column in run form wrapped as a flat column.
func flatten(c *column.Column) *column.Column {
	if _, _, ok := c.Runs(); !ok {
		return c
	}
	var f *column.Column
	switch c.Type() {
	case column.Float64:
		f = column.NewFloat64s(c.Name(), c.Float64s())
	case column.String:
		f = column.NewStrings(c.Name(), c.Strings())
	default:
		f = column.NewIntFamily(c.Name(), c.Type(), c.Int64s())
	}
	f.SetNulls(c.Nulls())
	return f
}

// extractEvent logs what an extraction delivered: rows, how many of the
// universal table's columns each of them carries, how many of those arrived
// as constant runs rather than one value per row, and — when it cut a sample
// window — how many samples of the records it read fell outside it.
func extractEvent(o Observer, rows int64, width, asRuns int, win *SampleWindow, trimmed int64) {
	detail := fmt.Sprintf("lazy extraction produced %d universal-table rows × %d of %d columns (%d as runs)",
		rows, width, len(catalog.DataviewColumns()), asRuns)
	if win != nil {
		detail += fmt.Sprintf("; sample window %s trimmed %d samples at record edges", win, trimmed)
	}
	o.Event("extract", detail)
}

// aggregateEvent logs what an aggregate folded; runs is non-zero when it
// walked its group keys once per constant run instead of once per row.
func aggregateEvent(o Observer, rows, runs int64, groups int) {
	if runs > 0 {
		o.Event("aggregate", fmt.Sprintf("%d rows in %d runs -> %d groups", rows, runs, groups))
		return
	}
	o.Event("aggregate", fmt.Sprintf("%d rows -> %d groups", rows, groups))
}

// applyPost runs one Project, Sort or Limit over its materialized input —
// the operators above a plan's last pipeline breaker, the same code on
// both engines.
func applyPost(n Node, in *column.Batch, env *Env) (*column.Batch, error) {
	switch x := n.(type) {
	case *Project:
		sp := env.Trace.StartChild("project")
		out, err := exec.Project(in, x.Exprs, x.Names)
		sp.End()
		return out, err
	case *Sort:
		sp := env.Trace.StartChild("sort")
		out, ss, err := exec.Sort(in, x.Keys)
		if err != nil {
			return nil, err
		}
		sp.AddRows(int64(out.NumRows()))
		sp.End()
		env.Stats.recordSort(ss)
		if ss.Strategy != exec.SortStrategyNone {
			env.obs().Event("sort", fmt.Sprintf("%s sort of %d rows", ss.Strategy, ss.Rows))
		}
		return out, nil
	case *Limit:
		return exec.Limit(in, x.N), nil
	default:
		return nil, fmt.Errorf("plan: %T is not a post-breaker operator", n)
	}
}

// reportJoin folds one executed join into the stats and the observer log.
func reportJoin(env *Env, x *Join, buildRows int, js exec.JoinStats) {
	env.Stats.recordJoin(js)
	build := "serial"
	if js.ParallelBuild {
		build = "parallel"
	}
	keyPath := "encoded"
	if js.IntKeys {
		keyPath = "packed-int"
	}
	spill := ""
	if js.SpilledPartitions > 0 {
		spill = fmt.Sprintf("; spilled %d partitions, %d rows, %d bytes", js.SpilledPartitions, js.SpilledRows, js.SpilledBytes)
	}
	env.obs().Event("join", fmt.Sprintf("%s: %d x %d -> %d rows (build: %d rows, %d partitions, %s, %s keys; probed %d rows%s)",
		x.Describe(), js.ProbeRows, buildRows, js.Matches,
		js.BuildRows, js.Partitions, build, keyPath, js.ProbeRows, spill))
}

// MetaPredicates returns the predicates that the compile-time reorder
// classified as metadata predicates (everything pushed into or above the
// F/R side), for reporting. It walks the plan collecting Scan preds and
// Filters below LazyExtract/data joins.
func MetaPredicates(n Node) []sql.Expr {
	var out []sql.Expr
	var walkMeta func(Node)
	walkMeta = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			out = append(out, x.Preds...)
		case *Filter:
			out = append(out, x.Preds...)
			walkMeta(x.Child)
		case *Join:
			walkMeta(x.L)
			walkMeta(x.R)
		}
	}
	var find func(Node)
	find = func(n Node) {
		if le, ok := n.(*LazyExtract); ok {
			walkMeta(le.Meta)
			return
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(n)
	return out
}

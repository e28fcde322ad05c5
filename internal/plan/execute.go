package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
// meaning the full width. Under a narrowed plan meta carries only
// LazyExtract.MetaCols.
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
// answer, when non-nil, is LazyExtract.ZoneAnswer: the source may leave a
// record prune and window wholly admit out of the morsels, answered from
// its zone; the stream's ZoneAnswerer partial stands in for its rows.
//
// morselRows and width are the consuming pool's morsel size and worker
// count: the source sizes its read-ahead from width (one prefetch worker per
// pool worker), so extraction has no parallelism setting of its own.
// Prefetch buffers are charged to led (nil = unlimited), so overlap
// degrades to synchronous extraction under budget pressure rather than
// blowing it.
//
// ctx ends the stream: it claims no further run, and a Next that would wait
// for one returns ctx.Err().
type ExtractSource interface {
	ExtractStream(ctx context.Context, meta *column.Batch, cols []string, prune *PruneRange, window *SampleWindow, answer ZoneAnswer, obs Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error)
}

// ZoneAnswerer is an extraction stream's partial aggregate of the records
// it answered from their zones, known before its first morsel.
type ZoneAnswerer interface {
	ZonePartial() exec.ZonePartial
}

// Observer is everything one query's execution reports, plan operators and
// the ExtractSource alike. It has two implementations: NopObserver, and the
// warehouse's per-query observer, which files extraction runs and scan
// tallies in the query's trace, events in the operation log, and pass 1's
// file stamps in the result cache's re-validation key. Implementations must
// be safe for concurrent use: lazy extraction reports from its prefetch
// workers as well as from its consumer.
type Observer interface {
	// ExtractRun records one step of the run-time rewrite: one record per
	// extraction run, handed over once the run is decoded, plus one for
	// pass 1 once the extraction's files are open. Nothing in it is
	// formatted; a reader renders it (warehouse.Trace.RuntimeOps).
	ExtractRun(r ExtractRun)
	// Event records a general operational log entry.
	Event(op, detail string)
	// ScanReport records one lazy extraction's skip accounting (the
	// \explain surface).
	ScanReport(r ScanReport)
	// TraceSpan is the span instrumented code (extraction read/decode)
	// attaches its spans under; nil when the query is not traced, which
	// every Span method treats as a no-op.
	TraceSpan() *obs.Span
}

// The operators the run-time rewrite injects (§3.1), as ExtractRun.Kind
// names them.
const (
	CacheRead     = "CacheRead"     // a record served from the recycler
	ExtractRecord = "ExtractRecord" // a record read and decoded from its file
	ExtractFile   = "ExtractFile"   // a whole file read and decoded (etl.Options.PrefetchWholeFile)
)

// ExtractRun is what one step of a lazy extraction injected, kept as the
// numbers and constant strings extraction already holds. Kind is
// ExtractRecord for a coalesced run, ExtractFile for a whole-file run, and
// CacheRead for pass 1, which serves the records the recycler holds before
// any run is read. Run is the run's index in plan order, -1 for pass 1.
type ExtractRun struct {
	Kind string
	Run  int
	// URI is the run's file; Offset and Bytes are the byte range it read,
	// and FileRecords the records an ExtractFile run decoded.
	URI           string
	Offset, Bytes int64
	FileRecords   int
	// One entry per record, in order: its seqno and sample count, the
	// encoding it was decoded from (runs) or its file (pass 1). The records
	// of an ExtractFile run are those it decoded again because the recycler
	// could not hold the file.
	Seqs, Samples []int
	Encodings     []string
	URIs          []string
	// Pass 1's record also lists the files the extraction opened, in plan
	// order, and stamps every file its output depends on.
	Opened []string
	Stamps []FileStamp
}

// NopObserver discards all observations.
type NopObserver struct{}

func (NopObserver) ExtractRun(r ExtractRun) {}
func (NopObserver) Event(op, detail string) {}
func (NopObserver) ScanReport(r ScanReport) {}
func (NopObserver) TraceSpan() *obs.Span    { return nil }

// Env carries everything plan execution needs.
type Env struct {
	// Ctx ends the query: each pipeline stops within one morsel of it
	// ending and fails with its error. nil means context.Background().
	Ctx    context.Context
	Store  *catalog.Snapshot
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
	// NoSkipping disables every statistics-driven shortcut — record
	// zone-map pruning and zone answers before extraction, and index-probed
	// joins — making this Env the oracle the skipping paths are tested
	// against.
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

// Execute runs the plan to completion as a push pipeline (see pipeline.go)
// and returns the result batch. Every plan Build produces decomposes; one
// that does not is an error.
func Execute(n Node, env *Env) (*column.Batch, error) {
	pp, ok := decompose(n)
	if !ok {
		return nil, fmt.Errorf("plan: %s does not decompose into a pipeline", n.Describe())
	}
	return executePipelined(pp, env)
}

// scanBase loads a Scan's table and applies its column prefix, without
// evaluating predicates. A narrowed scan (Cols) loads only the columns it
// hands on and the ones its predicates read.
func scanBase(x *Scan, env *Env) (*column.Batch, error) {
	b, err := env.Store.Table(x.Table)
	if err != nil {
		return nil, err
	}
	if x.Prefix == "" && x.Cols == nil {
		return b, nil
	}
	var reads []string
	if x.Cols != nil {
		reads = append(reads, x.Cols...)
		for _, p := range x.Preds {
			sql.WalkColumnRefs(p, func(ref *sql.ColumnRef) { reads = append(reads, ref.Name) })
		}
	}
	cols := make([]*column.Column, 0, b.NumCols())
	for i := 0; i < b.NumCols(); i++ {
		c := b.ColAt(i)
		name := x.Prefix + c.Name()
		if reads != nil && !slices.Contains(reads, name) {
			continue
		}
		if x.Prefix != "" {
			c = c.WithName(name)
		}
		cols = append(cols, c)
	}
	return column.NewBatch(cols...)
}

// ExtractAll materializes the universal table of meta in one batch: one
// stream drained as a single unbounded morsel, with nothing reserved from any
// ledger, and every column flat — the metadata columns the stream hands over
// as constant runs are expanded here. cols lists the columns, as
// ExtractSource takes them (nil: the full width). It is the eager load's
// mseed.data, and the extraction of the tests' operator-at-a-time reference
// (package reference) — the same stream the pipelines consume, minus the
// morsels, the run form and the sample window. width is the caller's pool
// width, passed through to the stream.
func ExtractAll(src ExtractSource, meta *column.Batch, cols []string, prune *PruneRange, obs Observer, width int) (*column.Batch, error) {
	s, err := src.ExtractStream(context.Background(), meta, cols, prune, nil, nil, obs, math.MaxInt, width, nil)
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

// applyPost runs one Project, Sort or Limit over its materialized input —
// the operators above a plan's last pipeline breaker.
func applyPost(n Node, in *column.Batch, env *Env) (*column.Batch, error) {
	switch x := n.(type) {
	case *Project:
		sp := env.Trace.StartChild("project")
		out, err := exec.Project(in, x.Exprs, x.Names)
		sp.End()
		return out, err
	case *Sort:
		sp := env.Trace.StartChild("sort")
		out, ss, err := exec.Sort(cmp.Or(env.Ctx, context.Background()), in, x.Keys)
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

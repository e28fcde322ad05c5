// Package warehouse assembles the full system: a repository snapshot, the
// catalog and column store, the ETL engine, the planner and the executor,
// behind a single queryable facade. It also carries the observability
// surface that the paper's demo exposes: plan traces (points 4 and 6),
// touched files (point 5), cache contents (point 7) and the operation log
// (point 8).
//
// # Concurrency contract
//
// A *Warehouse is safe for concurrent use. Query, Explain, Stats, Log and
// the read-only accessors may all be called from any number of goroutines
// at once; answers are bit-identical to the ones a single
// serial client would get (MaxConcurrentQueries: 1 is that client: one
// query at a time, holding the whole memory budget).
//
// There is one serve path. Every query is a *Prepared statement — Query
// resolves ad-hoc text to one through the template-keyed statement cache,
// Prepare resolves its template through the same cache — and Prepared.serve
// is the only code that admits, counts, cache-probes, executes and accounts
// it. A query's context bounds both its wait for admission and its
// execution: a pipeline stops within one morsel of the context ending.
//
// Everything a query reads comes from one value published once: the store
// snapshot (catalog.Snapshot) it loads at admission — the tables, their
// statistics and one version. Extraction opens a record's file as the
// repository root joined with its F.uri, so that snapshot alone decides
// which files are read, and the query runs to completion on it whatever is
// published meanwhile; it is the one record of which files the warehouse
// knows. Open's first load and every Refresh are one load: it lists the root
// afresh, merges the listing with the snapshot it replaces — header-scanning
// only new and changed files, carrying every other file's rows — and swaps
// the next tables in as one snapshot, or publishes nothing when a step fails
// or nothing changed. Refresh waits only for another Refresh, never for
// queries, and queries never wait for it.
// The admission slot is the only thing serve waits for.
//
// A query reads a file rewritten under it with its snapshot's metadata, as
// lazy reads of a mutable file must: records are read at the offsets the
// snapshot names, and one that no longer parses fails the query naming the
// file and offset. Extraction prepares again when a file's (mtime, size)
// changed between its stat and its open, which bounds only that window.
//
// Execution memory is shared fairly: when Options.MemoryBudget is set,
// each query draws from a per-query sub-budget carved out of the shared
// ledger (budget / MaxConcurrentQueries, at least 1 MiB), so one spilling
// join degrades itself to disk instead of starving every other client.
// Admission control bounds the number of simultaneously executing queries
// at Options.MaxConcurrentQueries; excess callers wait in Query, or in
// QueryContext until their context ends.
//
// # Statistics-driven skipping
//
// Lazy extraction collects zone maps as a by-product: every record it
// decodes leaves a min/max/NaN/null summary of its transformed sample
// values in the catalog, keyed by (uri, mtime, size, seqno) — the recycler's
// staleness key, so modifying a file invalidates its zones exactly like its
// cached payloads. Later queries consult them at run time:
//
//   - Skip-before-decode pruning: comparison predicates on D.sample_value
//     compile into a PruneRange carried below extraction, and qualifying
//     records whose zone entry proves no sample can pass are never ReadAt
//     nor Steim-decoded.
//   - Index-probed joins: the store records which integer columns of each
//     installed table are sorted, so a join on such a column searches each
//     probe key's rows instead of building a hash table.
//
// The shortcuts are semantically invisible: pruning only drops rows an
// enclosing filter would delete, and an index probe finds exactly the rows
// a hash probe would match, in the same order. No statistic reaches the planner — joins run in the order
// the SQL states them — so a plan depends on its statement and parameters
// alone. The tests' noSkipping oracle disables all of it and is the
// reference the skipping paths are tested against, across the full
// workers x morsel x budget matrix. Per-query effects surface in
// Result.Trace (Scans) and cumulatively in Stats.
package warehouse

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/sql"
)

// Mode re-exports plan.Mode for the public surface.
type Mode = plan.Mode

// Modes of operation.
const (
	Eager    = plan.Eager
	Lazy     = plan.Lazy
	External = plan.External
)

// Options configures Open.
type Options struct {
	Mode Mode
	ETL  etl.Options
	// Workers is the query-execution worker count for the morsel-driven
	// engine (pipeline stages and hash-join builds). 0 means
	// GOMAXPROCS; 1 selects the serial engine. Results are bit-identical
	// at every setting.
	Workers int
	// MemoryBudget bounds, in bytes, the execution-memory ledger that join
	// tables, aggregation group tables and recycler-cache admissions
	// reserve from. 0 means unlimited (the ledger still tracks a
	// high-water mark). A finite budget does not change the engine — every
	// query still runs as a push pipeline. Join build partitions whose
	// grant is denied spill to per-query temp files, and that join becomes
	// a pipeline breaker (the morsels so far are collected and probed as
	// one batch); the aggregation sink has no spill path, so its denied
	// reservations are taken anyway and show as Stats().Mem denials and
	// high-water overage; cache admissions are declined under pressure.
	// Results are bit-identical at every budget.
	MemoryBudget int64
	// MaxConcurrentQueries bounds how many queries execute simultaneously;
	// additional queries wait for a slot. It also sets the per-query
	// memory sub-budget under MemoryBudget (budget / slots, floored at
	// 1 MiB — the shared ledger still enforces the global bound). 0 means
	// GOMAXPROCS.
	MaxConcurrentQueries int
	// SlowQueryThreshold, when > 0, logs every query whose wall time
	// reaches it at warn severity, with its rendered span tree (when
	// tracing is on) so the expensive phase is attributable after the
	// fact. 0 disables the slow-query log.
	SlowQueryThreshold time.Duration

	// morselRows overrides the rows-per-morsel granularity of the parallel
	// engine and the push pipelines. <= 0 keeps the default; tests shrink
	// it to force multi-morsel schedules on small inputs.
	morselRows int
}

// maxLogEntries bounds the in-memory operation log.
const maxLogEntries = 10000

// oracle is a set of switches only tests set (Warehouse.oracle). Each turns
// one optimization off, leaving the reference the bit-identity tests and
// benchmarks compare with; answers are bit-identical under every
// combination.
type oracle uint8

const (
	// noSkipping disables every statistics-driven shortcut: record pruning
	// and zone answers before extraction, and index-probed joins.
	noSkipping oracle = 1 << iota
	// noQueryCache disables both query-cache tiers: every query is parsed
	// from its raw text by sql.Parse and pays full plan -> execute, so the
	// cached path's Normalize + ParseTemplate + BindParams is checked
	// against an independent parse.
	noQueryCache
	// noTrace disables per-query trace-span collection (Result.Trace.Spans
	// stays nil). Latency histograms and counters stay on regardless.
	noTrace
)

// Severity classifies operation-log entries so \log can filter.
type Severity int8

// Log severities, in ascending order.
const (
	SeverityInfo Severity = iota
	SeverityWarn
	SeverityError
)

// String returns the severity's lowercase name.
func (s Severity) String() string {
	switch s {
	case SeverityWarn:
		return "warn"
	case SeverityError:
		return "error"
	default:
		return "info"
	}
}

// LogEntry is one line of the operation log. Seq is a monotonic sequence
// number assigned under the log lock, so entries from concurrent queries
// have a total order even when their timestamps collide.
type LogEntry struct {
	Seq    int64
	At     time.Time
	Level  Severity
	Op     string
	Detail string
}

// Trace captures the plans of one query, before and after each of the two
// plan-modification steps of §3.1. It holds the bound statement, the two
// plan trees Build produced and the records of the run-time rewrite, and
// renders their text only when asked (SQL, Naive, Optimized, RuntimeOps): a
// query whose trace nobody reads pays nothing for it. Execution never
// modifies a plan, so the text is the same whenever it is asked for — after
// the query ran, or from a result-cache hit.
type Trace struct {
	stmt         *sql.SelectStmt
	naive, optim plan.Node
	// Runs are the run-time rewrite's records as lazy extraction reported
	// them, in plan order: pass 1's cache reads, then one per run read.
	Runs []plan.ExtractRun
	// TouchedFiles are the distinct source files opened by the query, in
	// the order it opened them.
	TouchedFiles []string
	// Scans reports, per lazy extraction, what the record zone maps
	// skipped: coalesced runs and records never read nor decoded.
	Scans []plan.ScanReport
	// Spans is the query's trace-span tree (wall time, rows and bytes per
	// serve-path phase and operator). nil under the noTrace oracle, and for a
	// result-cache hit it covers only the probe that served the hit.
	Spans *obs.SpanNode
}

// SQL renders the statement as executed: its canonical text with the
// parameters bound.
func (t *Trace) SQL() string {
	if t.stmt == nil {
		return ""
	}
	return t.stmt.String()
}

// Naive renders the plan before the compile-time reorganization (no
// pushdown; the filter sits above the full view expansion).
func (t *Trace) Naive() string { return render(t.naive) }

// Optimized renders the plan after the compile-time step: metadata
// predicates pushed below the data access so they execute first.
func (t *Trace) Optimized() string { return render(t.optim) }

func render(n plan.Node) string {
	if n == nil {
		return ""
	}
	return plan.Render(n)
}

// RuntimeOps renders the operators the run-time rewriting operator injected,
// one line each, from Runs: every cache read, then each run's records as it
// decoded them — an ExtractFile run's line first, then the records it
// decoded again because the recycler could not hold its file.
func (t *Trace) RuntimeOps() []string {
	var ops []string
	for _, r := range t.Runs {
		switch r.Kind {
		case plan.CacheRead:
			for k, seq := range r.Seqs {
				ops = append(ops, fmt.Sprintf("CacheRead %s seq=%d (%d samples)", r.URIs[k], seq, r.Samples[k]))
			}
			continue
		case plan.ExtractFile:
			ops = append(ops, fmt.Sprintf("ExtractFile %s (%d records)", r.URI, r.FileRecords))
		}
		for k, seq := range r.Seqs {
			ops = append(ops, fmt.Sprintf("ExtractRecord %s seq=%d (%d samples, %s)", r.URI, seq, r.Samples[k], r.Encodings[k]))
		}
	}
	return ops
}

// Result is the answer to one query plus its observability record.
type Result struct {
	Columns []string
	Batch   *column.Batch
	Elapsed time.Duration
	Trace   Trace
}

// Rows boxes the result rows (convenience for small results).
func (r *Result) Rows() [][]column.Value {
	out := make([][]column.Value, r.Batch.NumRows())
	for i := range out {
		out[i] = r.Batch.Row(i)
	}
	return out
}

// InitStats describes the initial load: the load's own etl.Stats (the
// repository's size, RepoBytes, among them) plus the size it loaded to.
type InitStats struct {
	Mode Mode
	etl.Stats
	// StoreBytes is the in-memory footprint of the loaded tables after the
	// initial load.
	StoreBytes int64
}

// Warehouse is an open scientific data warehouse over an mSEED repository.
// See the package documentation for the concurrency contract.
type Warehouse struct {
	mode      Mode
	store     *catalog.Store
	engine    *etl.Engine
	pool      *exec.Pool
	ledger    *mem.Ledger
	slowQuery time.Duration
	qc        *queryCache
	exec      plan.ExecStats
	metrics   obs.Metrics
	init      InitStats
	// oracle and run are the tests' hooks: run executes a plan, plan.Execute
	// unless a test swaps in the operator-at-a-time reference.
	oracle oracle
	run    func(plan.Node, *plan.Env) (*column.Batch, error)

	// admit is the admission semaphore: one slot per concurrently
	// executing query. queryBudget is the per-query memory sub-budget
	// carved from ledger (0 = unlimited).
	admit       chan struct{}
	queryBudget int64

	queries atomic.Int64

	logMu   sync.Mutex
	log     []LogEntry
	logSeq  int64
	keepLog int // maxLogEntries; tests shrink it
}

// Open builds a warehouse over the repository under dir and runs its first
// load, the one Refresh runs, against the empty snapshot, so it header-scans
// every file: metadata-only for Lazy and External; for Eager, the same load
// and then every record extracted into mseed.data, with the recycler off,
// since no eager plan reads it.
func Open(dir string, opts Options) (*Warehouse, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	slots := opts.MaxConcurrentQueries
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	var queryBudget int64
	if opts.MemoryBudget > 0 {
		queryBudget = opts.MemoryBudget / int64(slots)
		if minQB := int64(1 << 20); queryBudget < minQB {
			queryBudget = minQB
			if queryBudget > opts.MemoryBudget {
				queryBudget = opts.MemoryBudget
			}
		}
	}
	store := catalog.NewStore(catalog.MSEED())
	opts.ETL.DisableCache = opts.ETL.DisableCache || opts.Mode == Eager
	w := &Warehouse{
		mode:        opts.Mode,
		store:       store,
		engine:      etl.New(&repo.Repository{Root: root}, store, opts.ETL),
		pool:        exec.NewPoolMorsel(opts.Workers, opts.morselRows),
		ledger:      mem.New(opts.MemoryBudget),
		admit:       make(chan struct{}, slots),
		queryBudget: queryBudget,
		keepLog:     maxLogEntries,
		slowQuery:   opts.SlowQueryThreshold,
		run:         plan.Execute,
	}
	w.qc = newQueryCache(w.ledger, store)
	// Recycler admissions draw on the same ledger as operator working
	// sets, so a loaded cache and a heavy join compete for one budget.
	w.engine.Cache().AttachLedger(w.ledger)
	st, err := w.load("init")
	if err != nil {
		return nil, err
	}
	if st.Files == 0 {
		return nil, fmt.Errorf("warehouse: no mSEED files under %s", dir)
	}
	w.init = InitStats{Mode: w.mode, Stats: st, StoreBytes: w.store.Snapshot().Bytes()}
	return w, nil
}

// load is the one metadata load path, Open's and Refresh's (see
// etl.Engine.LoadMetadata); op names it in the log and error accounting.
func (w *Warehouse) load(op string) (etl.Stats, error) {
	load, what := w.engine.LoadMetadata, "metadata only (header scans, no payloads)"
	if w.mode == Eager {
		load, what = w.engine.LoadAll, "header scans, then every record extracted into mseed.data"
	}
	w.logf(op, "%v load: %s", w.mode, what)
	st, err := load()
	if err != nil {
		return st, w.fail(op, err)
	}
	w.logf(op, "loaded %d files, %d records in %v (%d bytes read)", st.Files, st.Records, st.Duration, st.BytesRead)
	return st, nil
}

// Mode returns the warehouse's operating mode.
func (w *Warehouse) Mode() Mode { return w.mode }

// InitStats returns the initial-load statistics.
func (w *Warehouse) InitStats() InitStats { return w.init }

// Catalog exposes the schema for browsing (demo point 2).
func (w *Warehouse) Catalog() *catalog.Catalog { return w.store.Catalog() }

// Store exposes the column store (metadata browsing, tests).
func (w *Warehouse) Store() *catalog.Store { return w.store }

// Engine exposes the ETL engine (cache inspection, extraction stats).
func (w *Warehouse) Engine() *etl.Engine { return w.engine }

// observer is the plan.Observer of one served query: it wires execution
// events into the query trace and the log. It is safe for concurrent use:
// lazy extraction reports from its prefetch workers as well as from the
// consumer.
type observer struct {
	mu    sync.Mutex
	w     *Warehouse
	trace *Trace
	// stamps are the files the answer depends on, as the extraction's
	// pass 1 stamped them: the result cache re-validates a hit by stat.
	stamps []plan.FileStamp
	// span is the query's execute-phase trace span; nil under noTrace.
	span *obs.Span
}

// TraceSpan hands instrumented execution code (extraction read/decode) the
// query's execute span.
func (o *observer) TraceSpan() *obs.Span { return o.span }

// ExtractRun files one step of the run-time rewrite in the trace, in plan
// order whatever order the prefetch workers finish runs in (a query has one
// extraction), and pass 1's opened files and stamps.
func (o *observer) ExtractRun(r plan.ExtractRun) {
	o.mu.Lock()
	runs := o.trace.Runs
	at := len(runs)
	for at > 0 && runs[at-1].Run > r.Run {
		at--
	}
	o.trace.Runs = slices.Insert(runs, at, r)
	o.trace.TouchedFiles = append(o.trace.TouchedFiles, r.Opened...)
	o.stamps = append(o.stamps, r.Stamps...)
	o.mu.Unlock()
}

// ScanReport files per-scan skipping tallies in the trace for the \explain
// surface.
func (o *observer) ScanReport(r plan.ScanReport) {
	o.mu.Lock()
	o.trace.Scans = append(o.trace.Scans, r)
	o.mu.Unlock()
}

// Event files a plan operator's or an extraction's event in the log.
func (o *observer) Event(op, detail string) { o.w.logf(op, "%s", detail) }

// Query serves one ad-hoc SELECT statement. It is safe to call from many
// goroutines at once: queries execute concurrently against per-query
// snapshots of the warehouse state (see the package doc), and every failure
// leaves an "error" entry in the operation log so failed queries stay
// attributable when many clients share the log.
//
// Query is Prepare + Execute with the literals as parameters: the text is
// normalized to its template, the template's statement comes from (or goes
// into) the statement cache, and that statement is served. Repeated shapes
// therefore skip the parse, and bit-identical answers may come straight
// from the result cache (validated against the snapshot version and the
// source files' stamps, so a cached answer never differs from fresh
// execution). Both caches admit on probation: the second identical query
// is a hit, but a statement or answer no query asks for again waits in
// probation instead of crowding out those that repeat.
func (w *Warehouse) Query(q string) (*Result, error) { return w.QueryContext(context.Background(), q) }

// QueryContext is Query with a context that bounds the query: cancelled, or
// past its deadline, while it waits for an admission slot or while it
// executes, the query fails with ctx.Err() and holds no slot and no memory.
func (w *Warehouse) QueryContext(ctx context.Context, q string) (*Result, error) {
	return w.query(ctx, q, true)
}

// QueryUncached executes like Query but never serves the answer from the
// result cache, so the run-time trace (injected operators, per-scan skip
// tallies) reflects a real execution — the \explain surface uses it. The
// statement cache still applies, and ctx bounds the query as it does for
// QueryContext.
func (w *Warehouse) QueryUncached(ctx context.Context, q string) (*Result, error) {
	return w.query(ctx, q, false)
}

func (w *Warehouse) query(ctx context.Context, q string, useResultCache bool) (*Result, error) {
	start, root := time.Now(), w.newRootSpan()
	w.logf("query", "%s", q)
	p, params, err := w.resolve(q, root)
	if err != nil {
		return nil, w.fail("query", err)
	}
	return p.serve(ctx, start, root, params, obs.ClassCold, useResultCache)
}

// newRootSpan starts the query's root trace span, or returns nil (every
// span operation no-ops) under the noTrace oracle.
func (w *Warehouse) newRootSpan() *obs.Span {
	if w.oracle&noTrace != 0 {
		return nil
	}
	return obs.NewRoot("query")
}

// fail is the one error-accounting site: every failed Query, Execute,
// Prepare and Refresh bumps the error counter, and the counter of its cause
// when it was cancelled, timed out or recovered from a panic, and leaves
// exactly one error-severity log entry (TestLogSeqAndSeverity pins the
// pairing).
func (w *Warehouse) fail(op string, err error) error { return w.failIn(op, err, nil) }

// failIn is fail for an execution under the trace span root: when the
// engine recovered a panic, the log entry also holds the query's span tree
// so far (none under noTrace) — where the query was when it broke.
func (w *Warehouse) failIn(op string, err error, root *obs.Span) error {
	w.metrics.Errors.Add(1)
	tree := ""
	var pe *exec.PanicError
	switch {
	case errors.Is(err, context.Canceled):
		w.metrics.Cancelled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		w.metrics.DeadlineExceeded.Add(1)
	case errors.As(err, &pe):
		w.metrics.Panics.Add(1)
		if root != nil {
			root.End()
			tree = "\nspan tree:\n" + obs.Render(root.Snapshot())
		}
	}
	w.logf("error", "%s failed: %v%s", op, err, tree)
	return err
}

// Prepared is a statement of the warehouse: parsed once, with '?' markers
// bound to values per execution. It is the one statement object — Prepare
// returns one for explicit reuse, and every ad-hoc Query resolves to one —
// and both resolve through the statement cache: a prepared "x = ?" and
// ad-hoc "x = 5" queries of the same shape are the same *Prepared, and
// share result entries.
type Prepared struct {
	w    *Warehouse
	text string // canonical template, or the raw text of a one-off statement
	stmt *sql.SelectStmt
	// cached is false for a one-off statement, which bypasses both cache
	// tiers: text that cannot normalize, and everything under noQueryCache.
	cached bool
}

// Prepare resolves a SELECT statement that may contain '?' parameter
// markers, for repeated execution with per-call parameter values: its
// canonical template's statement comes from (or goes into) the statement
// cache. A statement that does not parse fails at an offset in q as sent.
func (w *Warehouse) Prepare(q string) (*Prepared, error) {
	tmpl, err := sql.CanonicalTemplate(q)
	var p *Prepared
	if err == nil {
		p, err = w.statement(tmpl, nil)
	}
	if err != nil {
		_, perr := sql.ParseTemplate(q)
		return nil, w.fail("prepare", cmp.Or(perr, err))
	}
	w.logf("prepare", "%s (%d parameter(s))", tmpl, p.stmt.NumParams)
	return p, nil
}

// statement returns the statement of a canonical template from the
// statement cache, parsing it on a miss. Under the noQueryCache oracle it is
// a one-off: never admitted, and kept away from both tiers.
func (w *Warehouse) statement(tmpl string, root *obs.Span) (*Prepared, error) {
	return w.qc.statement(tmpl, func() (*Prepared, error) {
		psp := root.StartChild("parse")
		defer psp.End()
		stmt, err := sql.ParseTemplate(tmpl)
		if err != nil {
			return nil, err
		}
		return &Prepared{w: w, text: tmpl, stmt: stmt, cached: w.oracle&noQueryCache == 0}, nil
	})
}

// resolve turns ad-hoc text into the statement that serves it plus the
// parameters to serve it with: sql.Normalize pulls the literals out, and the
// template's statement comes from the statement cache or is parsed into it.
// Text that cannot normalize (explicit '?' markers, malformed literals) or
// whose template does not parse, and everything under the noQueryCache
// oracle, resolves to a one-off statement parsed from the raw text, so error
// messages point at real offsets and the oracle's parse is independent of
// Normalize + ParseTemplate + BindParams.
func (w *Warehouse) resolve(q string, root *obs.Span) (*Prepared, []column.Value, error) {
	if w.oracle&noQueryCache == 0 {
		nsp := root.StartChild("normalize")
		n, err := sql.Normalize(q)
		nsp.End()
		if err == nil {
			if p, err := w.statement(n.Template, root); err == nil {
				return p, n.Params, nil
			}
		}
	}
	psp := root.StartChild("parse")
	stmt, err := sql.Parse(q)
	psp.End()
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{w: w, text: q, stmt: stmt}, nil, nil
}

// SQL returns the canonical statement text ('?' markers included).
func (p *Prepared) SQL() string { return p.text }

// NumParams returns how many '?' markers the statement carries.
func (p *Prepared) NumParams() int { return p.stmt.NumParams }

// Execute binds the parameters and serves the statement under the same
// concurrency, admission and caching contract as Query. A parameter-count
// mismatch fails before admission; it is a failed query all the same.
func (p *Prepared) Execute(params ...column.Value) (*Result, error) {
	return p.ExecuteContext(context.Background(), params...)
}

// ExecuteContext is Execute with a context that bounds the query, as
// QueryContext does.
func (p *Prepared) ExecuteContext(ctx context.Context, params ...column.Value) (*Result, error) {
	if len(params) != p.stmt.NumParams {
		return nil, p.w.fail("query", fmt.Errorf("warehouse: prepared statement wants %d parameter(s), got %d", p.stmt.NumParams, len(params)))
	}
	p.w.logf("query", "EXECUTE %s %v", p.text, params)
	return p.serve(ctx, time.Now(), p.w.newRootSpan(), params, obs.ClassPrepared, true)
}

// Explain builds the plan the statement would execute with for these
// parameters, as serve does, without executing it. It reads no store
// snapshot: a plan depends on the statement and parameters alone. Per-scan
// skip tallies require execution; use QueryUncached and read
// Result.Trace.Scans.
func (p *Prepared) Explain(params ...column.Value) (*Trace, error) {
	_, tr, err := p.plan(params, nil)
	if err != nil {
		return nil, err
	}
	return &tr, nil
}

// Explain is Prepared.Explain for ad-hoc text, resolved as Query does.
func (w *Warehouse) Explain(q string) (*Trace, error) {
	p, params, err := w.resolve(q, nil)
	if err != nil {
		return nil, err
	}
	return p.Explain(params...)
}

// serve runs the statement once. It is the whole serve path, and the only
// one: admission, the store snapshot, the query count, the result-cache
// probe, plan resolution, execution, cache admission, and the close-out of
// spans, histograms, slow-query log, "answer" entry and error accounting.
// (The "query" log entry is its callers': each has the text as it arrived,
// which a statement shared by every query of its shape does not.)
// class is the latency-histogram class of a computed answer (a result-cache
// hit is always ClassCached); useResultCache false keeps the statement away
// from the result cache, probe and admission both. ctx ends the query at
// admission or, on plan.Env, within one morsel of its execution.
func (p *Prepared) serve(ctx context.Context, start time.Time, root *obs.Span, params []column.Value, class obs.QueryClass, useResultCache bool) (*Result, error) {
	w := p.w
	adm, admStart := root.StartChild("admit"), time.Now()
	// Admission control: at most cap(w.admit) queries execute at once;
	// the rest wait here, keeping the per-query memory sub-budgets honest.
	select {
	case w.admit <- struct{}{}:
	case <-ctx.Done():
		return nil, w.fail("query", ctx.Err())
	}
	defer func() { <-w.admit }()
	w.metrics.Admit.Observe(time.Since(admStart))
	adm.End()

	w.queries.Add(1)

	ssp := root.StartChild("snapshot")
	store := w.store.Snapshot()
	ssp.End()
	psp := root.StartChild("cache-probe")
	sqlKey := p.key(params)
	useResultCache = useResultCache && sqlKey != ""
	key := resultKey{sqlKey: sqlKey, version: store.Version()}
	if useResultCache {
		if ent, ok := w.qc.lookupResult(key); ok {
			psp.AddRows(int64(ent.batch.NumRows()))
			psp.End()
			res := &Result{Columns: ent.columns, Batch: ent.batch, Trace: ent.trace}
			return p.finish(res, start, root, params, obs.ClassCached), nil
		}
	}
	psp.End()

	node, tr, err := p.plan(params, root)
	if err != nil {
		return nil, w.fail("query", err)
	}
	res := &Result{Trace: tr}
	esp := root.StartChild("execute")
	o := &observer{w: w, trace: &res.Trace, span: esp}
	// The query's memory context: operator reservations come from a
	// per-query sub-budget of the warehouse ledger (so one spilling query
	// cannot starve the fleet); spill files live in a per-query temp dir
	// that the deferred Cleanup removes on every exit path, error included.
	qm := exec.NewQueryMem(w.ledger.Child(w.queryBudget), "")
	defer qm.Cleanup()
	env := &plan.Env{Ctx: ctx, Store: store, Source: w.engine, Obs: o, Pool: w.pool, Mem: qm, Stats: &w.exec,
		NoSkipping: w.oracle&noSkipping != 0, Trace: esp}
	res.Batch, err = w.run(node, env)
	if err != nil {
		return nil, w.failIn("query", err, root)
	}
	esp.AddRows(int64(res.Batch.NumRows()))
	esp.End()
	msp := root.StartChild("emit")
	res.Columns = res.Batch.Names()
	if useResultCache {
		w.qc.admitResult(key, res, o.stamps)
	}
	msp.End()
	return p.finish(res, start, root, params, class), nil
}

// finish closes out one served query: elapsed time, the latency histogram
// observation, the root span's end+snapshot (nil under noTrace), the
// slow-query log and the "answer" log entry.
func (p *Prepared) finish(res *Result, start time.Time, root *obs.Span, params []column.Value, class obs.QueryClass) *Result {
	w := p.w
	res.Elapsed = time.Since(start)
	w.metrics.ObserveQuery(class, res.Elapsed)
	root.End()
	res.Trace.Spans = root.Snapshot()
	if w.slowQuery > 0 && res.Elapsed >= w.slowQuery {
		w.metrics.Slow.Add(1)
		tree := ""
		if res.Trace.Spans != nil {
			tree = "\n" + obs.Render(res.Trace.Spans)
		}
		w.logAt(SeverityWarn, "slow", "%v >= %v (%s): %s %v%s", res.Elapsed, w.slowQuery, class, p.text, params, tree)
	}
	if class == obs.ClassCached {
		w.logf("answer", "%d rows in %v (result cache)", res.Batch.NumRows(), res.Elapsed)
	} else {
		w.logf("answer", "%d rows in %v", res.Batch.NumRows(), res.Elapsed)
	}
	return res
}

// plan binds the parameters and builds the plan the statement executes
// with: the seam serve and Explain share. It returns the plan's root and the
// query's Trace skeleton (statement and plans, rendered on demand; the
// run-time fields fill in during execution). A plan is a function of the
// statement and its parameters alone — Build reads the catalog's fixed
// schema and the warehouse's fixed mode, never the store's contents — so it
// needs no snapshot.
func (p *Prepared) plan(params []column.Value, root *obs.Span) (plan.Node, Trace, error) {
	w := p.w
	psp := root.StartChild("parse")
	bound, err := sql.BindParams(p.stmt, params)
	psp.End()
	if err != nil {
		return nil, Trace{}, err
	}
	bsp := root.StartChild("plan")
	plans, err := plan.Build(bound, w.store.Catalog(), w.mode)
	if err != nil {
		return nil, Trace{}, err
	}
	bsp.End()
	return plans.Root, Trace{stmt: bound, naive: plans.Naive, optim: plans.Root}, nil
}

// Refresh re-synchronizes the warehouse with the repository by running
// Open's load again: only new and changed files are header-scanned, every
// other file's rows are carried from the snapshot it replaces, and removed
// and changed files lose their cached payloads and zones; eager mode then
// re-extracts mseed.data. The reload is published as one snapshot, or not
// at all if it fails or finds nothing changed. Refresh waits only for
// another Refresh: queries admitted before the publication run to
// completion on the snapshot they loaded, and queries admitted after it see
// the new one.
func (w *Warehouse) Refresh() (etl.Stats, error) {
	start := time.Now()
	version := w.store.Snapshot().Version()
	st, err := w.load("refresh")
	if err != nil {
		return st, err
	}
	// When the load published, the snapshot version the result keys carry
	// changed, so no stale answer could ever be served again; purging
	// reclaims their memory (and ledger bytes) immediately instead of via
	// eviction. A load that published nothing leaves every answer current.
	// Statements stay: none depends on what the refresh changed.
	if w.store.Snapshot().Version() != version {
		w.qc.purge()
	}
	w.metrics.ObserveQuery(obs.ClassRefresh, time.Since(start))
	return st, nil
}

// Metrics exposes the always-on latency histograms and counters.
func (w *Warehouse) Metrics() *obs.Metrics { return &w.metrics }

// Stats summarizes the warehouse state. It is the one typed snapshot behind
// both stats surfaces: GET /stats serves it as JSON under "warehouse", and
// the REPL's \stats prints the same document.
type Stats struct {
	Mode    Mode
	Workers int
	// Init is the initial load (demo point 1).
	Init InitStats
	// MaxConcurrentQueries is the admission-control slot count; InFlight
	// is how many queries currently hold a slot.
	MaxConcurrentQueries int
	InFlight             int
	// QueryMemBudget is the per-query memory sub-budget carved from the
	// shared ledger (0 = unlimited).
	QueryMemBudget int64
	Queries        int64
	FilesRows      int
	RecordsRows    int
	DataRows       int
	StoreBytes     int64
	CacheEntries   int
	CacheBytes     int64
	CacheStats     string
	// QueryCache summarizes the two-tier query cache: the result cache's
	// hits, misses, entries, bytes (ledger-charged), evictions, unreused
	// probation drops and invalidations.
	QueryCache QueryCacheStats
	// Extraction counts lazy-extraction work, including the coalesced-run
	// read path: RunsRead / RunRecords give the records-per-syscall ratio
	// and DecodeNanos the in-memory parse+decode share of extraction.
	Extraction etl.ExtractStats
	// Exec aggregates operator-level counters across all queries: join
	// build partitioning and probe volumes, which sort strategy (radix vs
	// comparator) ORDER BY executions chose, and spill activity under the
	// memory governor (Exec.PartitionsSpilled / Exec.BytesSpilled).
	Exec plan.ExecSnapshot
	// Mem is the execution-memory ledger snapshot: configured budget,
	// bytes currently reserved (operator working sets plus cache
	// entries), the high-water mark, and reservation denials.
	Mem mem.Snapshot
	// Failures counts the queries that returned an error, and of those the
	// ones cancelled, past their deadline, or failed by a recovered panic.
	Failures FailureStats
}

// FailureStats counts failed queries by cause.
type FailureStats struct {
	Errors           int64
	Cancelled        int64
	DeadlineExceeded int64
	PanicsRecovered  int64
}

// Stats returns a snapshot of warehouse counters. Safe to call while
// queries and refreshes are in flight. Each block is consistent in itself —
// the execution counters are copied under their mutex, the query-cache
// counters under the cache's, and the store row/byte figures come from one
// store snapshot, so they agree even mid-refresh — but the blocks
// are read one after another, not at one instant.
func (w *Warehouse) Stats() Stats {
	store := w.store.Snapshot()
	cs := w.engine.Cache().Stats()
	return Stats{
		Mode:                 w.mode,
		Workers:              w.pool.Workers(),
		Init:                 w.init,
		MaxConcurrentQueries: cap(w.admit),
		InFlight:             len(w.admit),
		QueryMemBudget:       w.queryBudget,
		Queries:              w.queries.Load(),
		FilesRows:            store.Rows(catalog.TableFiles),
		RecordsRows:          store.Rows(catalog.TableRecords),
		DataRows:             store.Rows(catalog.TableData),
		StoreBytes:           store.Bytes(),
		CacheEntries:         w.engine.Cache().Len(),
		CacheBytes:           w.engine.Cache().Used(),
		CacheStats: fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d declined=%d/%dB",
			cs.Hits, cs.Misses, cs.Evictions, cs.Invalidations, cs.Declined, cs.DeclinedBytes),
		QueryCache: w.qc.statsSnapshot(),
		Extraction: w.engine.ExtractionStats(),
		Exec:       w.exec.Snapshot(),
		Mem:        w.ledger.Snapshot(),
		Failures: FailureStats{
			Errors:           w.metrics.Errors.Load(),
			Cancelled:        w.metrics.Cancelled.Load(),
			DeadlineExceeded: w.metrics.DeadlineExceeded.Load(),
			PanicsRecovered:  w.metrics.Panics.Load(),
		},
	}
}

// Log returns a copy of the operation log (demo point 8).
func (w *Warehouse) Log() []LogEntry {
	w.logMu.Lock()
	defer w.logMu.Unlock()
	out := make([]LogEntry, len(w.log))
	copy(out, w.log)
	return out
}

// logf appends an entry with severity derived from the op: "error" ops are
// errors, everything else informational. Explicit severities go through
// logAt.
func (w *Warehouse) logf(op, format string, args ...any) {
	level := SeverityInfo
	if op == "error" {
		level = SeverityError
	}
	w.logAt(level, op, format, args...)
}

// logAt appends one entry to the bounded operation log.
func (w *Warehouse) logAt(level Severity, op, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	w.logMu.Lock()
	defer w.logMu.Unlock()
	if len(w.log) >= w.keepLog {
		// Make room so the appended entry keeps len <= keepLog, dropping
		// the oldest half when possible to amortize the copy (dropping
		// exactly half of a 1-entry log drops nothing, so take the max).
		drop := len(w.log) - w.keepLog + 1
		if half := len(w.log) / 2; half > drop {
			drop = half
		}
		n := copy(w.log, w.log[drop:])
		w.log = w.log[:n]
	}
	w.logSeq++
	w.log = append(w.log, LogEntry{Seq: w.logSeq, At: time.Now(), Level: level, Op: op, Detail: detail})
}

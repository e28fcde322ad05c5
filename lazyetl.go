// Package lazyetl is a scientific data warehouse with query-driven,
// on-demand ETL, reproducing "Lazy ETL in Action: ETL Technology Dates
// Scientific Data" (Kargın et al., PVLDB 6(12), 2013) and its BIRTE 2012
// companion system.
//
// A warehouse opens over a repository of mSEED seismic waveform files. In
// Lazy mode the initial load parses only metadata (file and record headers;
// no payload is decoded — the files are still read, in 64 KiB chunks, since a
// header-sized read per record would touch every page anyway), so the
// warehouse is queryable near-instantly; waveform samples are
// extracted, transformed and cached on demand, per query, for exactly the
// records that survive the query's metadata predicates — and only the
// universal-table columns the statement reads are delivered, the metadata
// ones as one constant run per record rather than once per sample.
// Eager mode performs the traditional full initial load, and External mode
// models external-table access (query-time extraction without metadata
// pruning) as a baseline.
//
// Query execution is morsel-driven parallel: Options.Workers sets the
// worker count (0 = GOMAXPROCS, 1 = the serial engine); results are
// bit-identical at every setting, for one reason: a pipeline's sink takes
// its morsels strictly in source order, so every aggregate — grouped or
// global, the latter being the group of zero keys — folds its rows left to
// right. There is one summation order, and no answer depends on where a
// morsel or partition boundary fell.
//
// There is one execution engine: every query runs as a morsel-wise push
// pipeline. Scan, filter, join probe and aggregation fuse over one morsel's
// selection vector with no intermediate batch, breaking only at join build
// sides, sort and the final output. Lazy extraction feeds such pipelines
// as a stream — background workers (as many as Options.Workers: the consumer
// sleeps whenever it is behind them) read and Steim-decode the next
// coalesced runs while the current run's morsels flow through the compute
// stages, with prefetch buffers charged to the memory ledger so overlap
// degrades to synchronous extraction under budget pressure. Extraction
// writes each sample once: a
// run decodes into one value buffer that the recycler's entries and the
// morsels both view (8 bytes a cached sample), and D.sample_time, a pure
// function of a record's start, rate and sample index, is generated only
// for the statement that lists it. A D.sample_time range is answered at the
// record edge: extraction delivers only the samples inside it, so no query
// compares one timestamp per sample to keep a window. Pipelined
// output is bit-identical to an operator-at-a-time serial reference that
// only the tests link — serial in its operators only: it drains that same
// extraction stream into one batch first. Stats reports pipeline and
// prefetch counters.
//
// Execution memory is governed by Options.MemoryBudget (bytes; 0 =
// unlimited): join tables, aggregation group tables and recycler-cache
// admissions reserve from one budget ledger. The budget never selects a
// different engine. Under pressure a join spills build partitions to
// per-query temp files and becomes one more pipeline breaker — the morsels
// so far are collected, probed against the grace-hash table as one batch,
// and the pipeline resumes over the joined rows, so extraction is never
// repeated — while the aggregation sink, whose group table must be
// resident to be emitted, accounts its growth on the ledger without
// spilling. Results stay bit-identical to the in-memory path, and Stats
// reports the ledger high-water mark, denials and spill counters.
//
// A Warehouse serves queries concurrently: Query, Explain, Stats and Log
// may be called from any number of goroutines. Each query runs
// against the immutable store snapshot it loads at admission — tables,
// statistics and version published as one value — and that snapshot alone
// decides which files it reads. Open's initial load and Refresh are one
// load, run by Open from an empty snapshot: it lists the repository afresh,
// header-scans only new and changed files, carries every other file's rows
// from the snapshot it replaces, and swaps the next snapshot in — or
// publishes nothing if it fails or finds no change. After Open, Refresh is
// the only writer, and it never waits for queries nor makes them wait.
// Admitted queries (Options.MaxConcurrentQueries at a time) each get a
// sub-budget carved from the shared memory ledger so one spilling query
// cannot starve the rest. Concurrent answers are bit-identical to serial
// execution (MaxConcurrentQueries: 1). There is one serve path: every
// query, ad-hoc or prepared, is a Prepared statement served by one
// function. cmd/lazyetld serves a warehouse to many clients over HTTP/JSON.
//
// Repeated statement shapes are served through a two-tier query cache.
// Tier 1 normalizes each query (literals become positional parameters;
// whitespace and keyword case canonicalize away) and caches the parsed
// statement under its template, so a repeated shape skips the parse;
// Warehouse.Prepare resolves explicit prepared statements with '?' markers
// through the same tier. Plans are built per execution: a plan depends on
// its literals, and costs microseconds beside extraction. Tier 2 caches
// completed answers keyed by (normalized SQL + parameters, store snapshot
// version), guarded by per-file mtime/size stamps re-validated on every
// hit, and byte-charged to the shared memory ledger so cached results
// compete with the recycler cache under one budget. A Refresh that
// publishes a new snapshot invalidates this tier.
// Cached answers are bit-identical to fresh execution; the tests hold them
// to an uncached warehouse that parses every statement from its raw text.
//
// The query path is observable end to end. Every query carries a trace of
// spans (normalize, cache probe, parse, plan, extraction read/decode/
// prefetch-stall, pipeline stages, emit) returned in Trace.Spans and
// rendered by the \trace REPL command or POST /query?trace=1 on
// cmd/lazyetld; the tests prove against an untraced warehouse that tracing
// never changes answers and costs under 2% (BenchmarkTraceOverhead).
// Per-class latency histograms, an admission-wait histogram and counters
// are always on and exported in Prometheus text format at GET /metrics, and
// Options.SlowQueryThreshold logs the span tree of any query at or over the
// threshold into the operation log at warn severity. Warehouse.Stats is the one typed snapshot of the counters, the
// initial load's included: GET /stats serves it as JSON, and the REPL's
// \stats prints that same document. Execution reports through one
// interface, plan.Observer.
//
// Quickstart:
//
//	files, _ := lazyetl.GenerateRepository(lazyetl.RepoConfig{Dir: dir, Seed: 1})
//	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
//	res, err := w.Query(`SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)
//	                     FROM mseed.dataview
//	                     WHERE F.network = 'NL' AND F.channel = 'BHZ'
//	                     GROUP BY F.station`)
//	fmt.Print(res.Batch)
//
// The package is a thin facade; subsystems live in internal/ packages
// (mseed format, columnar store, SQL front-end, planner, executor, ETL
// engine, recycler cache, waveform synthesis, STA/LTA analysis).
package lazyetl

import (
	"repro/internal/etl"
	"repro/internal/seisgen"
	"repro/internal/seismic"
	"repro/internal/warehouse"
)

// Re-exported core types. These aliases are the supported public API.
type (
	// Warehouse is an open scientific data warehouse over an mSEED file
	// repository.
	Warehouse = warehouse.Warehouse
	// Options configures Open.
	Options = warehouse.Options
	// ETLOptions configures the extraction engine (Options.ETL).
	ETLOptions = etl.Options
	// Mode selects eager, lazy or external-table operation.
	Mode = warehouse.Mode
	// Result is a query answer with its plan trace and touched-file list.
	Result = warehouse.Result
	// Trace carries the naive plan, the reorganized plan (rendered on
	// demand by its Naive and Optimized methods), and the operators
	// injected by the run-time rewrite.
	Trace = warehouse.Trace
	// InitStats describes the cost of the initial load.
	InitStats = warehouse.InitStats
	// Stats is a snapshot of warehouse counters.
	Stats = warehouse.Stats
	// Prepared is a statement prepared with Warehouse.Prepare: parsed
	// once, executed repeatedly with per-call parameter values.
	Prepared = warehouse.Prepared
	// QueryCacheStats is the observable state of the two-tier query cache
	// (Stats.QueryCache).
	QueryCacheStats = warehouse.QueryCacheStats
	// LogEntry is one line of the operation log.
	LogEntry = warehouse.LogEntry
	// Severity classifies operation-log entries (info, warn, error).
	Severity = warehouse.Severity

	// RepoConfig configures GenerateRepository.
	RepoConfig = seisgen.RepoConfig
	// Station identifies a synthetic seismograph station.
	Station = seisgen.Station
	// GeneratedFile describes one generated repository file.
	GeneratedFile = seisgen.GeneratedFile

	// EventConfig configures DetectEvents.
	EventConfig = seismic.Config
	// SeismicEvent is one detected event.
	SeismicEvent = seismic.Event
)

// Operating modes.
const (
	// Eager performs the traditional full initial load.
	Eager = warehouse.Eager
	// Lazy loads only metadata initially; data is extracted per query.
	Lazy = warehouse.Lazy
	// External extracts per query without metadata pruning (baseline).
	External = warehouse.External
)

// Operation-log severities (LogEntry.Level).
const (
	SeverityInfo  = warehouse.SeverityInfo
	SeverityWarn  = warehouse.SeverityWarn
	SeverityError = warehouse.SeverityError
)

// Open scans the mSEED repository under dir and initializes a warehouse in
// the requested mode. Options.Workers sizes the morsel-driven parallel
// engine — pipeline stages and hash-join builds (0 = GOMAXPROCS, 1 =
// serial) — and how far lazy extraction reads ahead: a query's extraction
// stream runs as many prefetch workers as the pool has workers (never more
// than it has runs to read) — its consumer is blocked whenever it is behind
// them, so it needs no core of its own.
func Open(dir string, opts Options) (*Warehouse, error) {
	return warehouse.Open(dir, opts)
}

// GenerateRepository writes a deterministic synthetic mSEED repository to
// cfg.Dir (background noise plus optional injected seismic events), the
// stand-in for a real seismic archive such as ORFEUS.
func GenerateRepository(cfg RepoConfig) ([]GeneratedFile, error) {
	return seisgen.Generate(cfg)
}

// DetectEvents runs STA/LTA event detection over a uniformly sampled
// series, typically the sample_time/sample_value columns of a query result.
func DetectEvents(times []int64, values []float64, cfg EventConfig) ([]SeismicEvent, error) {
	return seismic.DetectEvents(times, values, cfg)
}

// The two sample analytical queries of the paper's Figure 1, verbatim.
const (
	// Figure1Q1 computes a short-term average over the ISK station's BHE
	// channel within a two-second window.
	Figure1Q1 = `SELECT AVG(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'ISK'
AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000'`

	// Figure1Q2 computes per-station amplitude extremes over the Dutch
	// network's BHZ channels, unrestricted in time.
	Figure1Q2 = `SELECT F.station,
MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.network = 'NL'
AND F.channel = 'BHZ'
GROUP BY F.station`
)

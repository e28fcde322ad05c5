// Package exec implements the vectorized execution engine: expression
// evaluation over column batches and the physical operators (filter,
// project, hash join, group-aggregate, sort, limit) that the planner's
// logical plans lower to.
//
// # Selection-vector execution model
//
// The engine follows MonetDB's column-at-a-time discipline, with filters
// expressed as selection vectors rather than materialized intermediates. A
// selection vector is an ascending []int32 of qualifying row indices over
// an input batch; nil denotes "all rows". Predicate evaluation composes
// one selection vector across an entire WHERE clause:
//
//   - a conjunction threads the vector through its conjuncts, so each
//     successive predicate only inspects the rows that survived the
//     previous ones;
//   - a disjunction evaluates both sides over the same candidate rows and
//     merges the two ordered vectors;
//   - a comparison runs a typed kernel (see kernels.go) that scans raw
//     int64/float64/string vectors and appends qualifying indices, with a
//     constant-vs-column specialization when one operand is a literal (no
//     broadcast column is ever built; where a literal must stand as a
//     column, as in SELECT 1, it is one constant run, not n values) and a
//     null-free fast path when the column has no null bitmap.
//
// A filter gathers at most once, after the full predicate list has been
// reduced to one selection vector — and in a pipeline not at all: the
// vector travels with the morsel to the sink. Operators that produce new
// columns (arithmetic, aggregation) write into preallocated typed slices
// sized from their inputs instead of growing columns value by value.
//
// Aggregation hashes group keys without boxing, on one of two key paths: a
// single integer-family key indexes a map[int64] directly, and composite or
// string keys are encoded into a reused fixed-width byte buffer whose map
// lookups do not allocate. Either path is walked per row or per run. The
// universal table's F.* and R.* columns reach the sink in constant-run form
// (column.Column.Runs: one value per record plus the records' cumulative
// row ends), and when every group-key column of a morsel has that form the
// sink walks the merged run boundaries instead of the rows — intersected
// with the selection vector when a filter refined the morsel — doing one
// key encode and one lookup per run. Which walk runs is a property of the
// input the sink observes, not a setting; both create groups in
// first-appearance order and fold each group's rows in row order, so they
// agree bit for bit. Everything else that meets a run column — an
// aggregate argument, a filter predicate, a join key, a gather — reads its
// raw vector and gets the one lazy expansion.
//
// A group holds one state per slot: every COUNT(*) shares one, and so do
// the aggregates over one plain column — Figure 1's AVG, MIN and MAX of
// D.sample_value fold it once, as the state keeps count, sums, min and max
// together. The run walk (a zero-key morsel is one run) hands each stretch
// of a group's live rows to fold, the sink's one fold entry point: one
// typed loop over the range or the selection vector for a null-free,
// non-DISTINCT numeric argument, a row walk for any other. The answers
// follow row order, not the path:
//
//   - MIN and MAX: a group's first live value seeds both bounds; a later
//     one replaces a bound only by comparing below or above it. So [NaN, 1]
//     answers NaN, [1, NaN] answers 1, and of -0 and +0 the first stays.
//   - An integer SUM is exact or the error "exec: SUM(x) overflows int64":
//     the folds count the int64 total's signed wraps, whose net does not
//     depend on order. SUM over TIMESTAMP is a type error.
//
// # Joins: an index probe or a hash table
//
// An equi-join reaches its build side one of two ways, and the data decides
// which. When the build side is a stored table sorted on its one
// integer-family join key — catalog.Snapshot.Sorted, recorded when the
// table is installed; the loaders store mseed.records in file_id order and
// mseed.files by file_id — IndexProbeStage builds nothing: for each probe
// key it binary-searches the key vector for that key's rows, filters the
// range with the build side's pushed-down predicates, and assembles. Every
// other join — an unsorted build side, two keys (the eager (file_id, seqno)
// data join), a non-integer key, a build side that is not a plain table
// scan — builds the hash table below and probes it with ProbeStage. Their
// output is the same, row for row and bit for bit: a key's rows are one
// ascending range of the sorted table, the predicates keep an ascending
// subset of it, and a hash chain links the filtered build rows ascending,
// so either way each probe row meets its matches in table order. The index
// probe reserves no memory and never spills, and the build rows it never
// looks at count as skipped scan rows. A build-side predicate that cannot
// evaluate over the table's types fails when the stage is made, as the hash
// path's whole-table filter fails it, even if no probe row ever arrives.
// FuzzIndexProbe holds the index probe to the hash probe; the tests'
// operator-at-a-time reference always hashes.
//
// # Cache-conscious join and sort structures
//
// HashJoin builds a flat open-addressing table (hashtable.go) instead of a
// Go map: linear probing over parallel slot arrays holding each key's
// first build row, with duplicate-key rows chained through one shared
// next []int32 linked head-to-tail — no per-key slice, no per-insert
// allocation, and probe traffic that touches two flat arrays instead of
// chasing map buckets. Up to two integer-family key columns pack into a
// [2]int64 (null-free Float64 keys join this path by canonicalized
// bit-cast); other key shapes byte-encode into a per-partition arena.
//
// Sort (radixsort.go) specializes the common single integer/timestamp key
// to an LSD radix sort over bias-mapped uint64s — null rows split off in
// input order (leading ascending, trailing descending), eight byte-digit
// counting passes with uniform digits skipped — and falls back to a
// sort.SliceStable comparator for float, string and multi-key orderings.
// Both are stable under the same total preorder, so they produce the same
// permutation the comparator always did.
//
// # One engine: push pipelines over a morsel-driven pool
//
// Every query runs as a push pipeline (pipeline.go). A BatchSource yields
// morsels (a batch view plus an optional selection vector), PipeStages
// transform them in place — FilterStage refines the selection vector with
// no gather, ProbeStage probes a prebuilt join table row by row, each row
// straight into the partition its hash prefix names, IndexProbeStage
// searches a sorted stored table — and a PipeSink
// terminates the pipeline: CollectSink appends surviving rows to the
// output, AggSink folds them into group states. One morsel flows through
// the whole stage chain before the next starts, so scan -> filter -> probe
// -> aggregate runs fused with no intermediate batch. The pipeline breakers
// are hash-join build sides, a join whose build spilled (below), sort, and
// the final output.
//
// Pool.RunPipeline keeps the serial semantics structurally: a feeder
// sequences morsels, workers claim them and run the stage chain
// concurrently, and the consumer releases results to the sink strictly in
// sequence order — so order-sensitive sink state (float accumulation,
// group first-appearance, the first error) folds exactly as the serial
// loop would, and output is bit-identical at every worker count and morsel
// size. That ordered sink is the engine's one determinism mechanism for
// aggregates, and it gives them one fold order: every group's rows fold
// left to right, and a global (ungrouped) aggregate is the group of zero
// key columns — created before any row arrives (SQL's one row over zero
// rows), each morsel one stretch of the run walk above. Float SUM and AVG
// therefore add in row order whether or not there is a GROUP BY, and
// MIN/MAX see every value in row order, so no answer depends on where a
// morsel boundary fell.
//
// One breaker runs on the pool too, over contiguous row-range morsels
// claimed from an atomic cursor, and earns the same guarantee structurally
// rather than by locking: a hash-join build side larger than one morsel is
// radix-partitioned on the high bits of the key hash — hash-and-count per
// morsel, a prefix sum that lays each partition's rows out in morsel (hence
// ascending row) order, a scatter into those disjoint windows, and one
// private flat-table build per partition in that order. Every key lives in
// exactly one partition and every chain links build rows ascending — the
// same chains the serial single-table build produces — so probe output is
// independent of the partition count and of which worker built what. A
// build that fits one morsel is one serial table. Every other breaker is
// serial: a whole-batch probe, a gather and a sort each run once over their
// input.
//
// Workers hold no state between invocations and pools are safe for
// concurrent use by many queries; nothing in the engine mutates shared
// data during a parallel phase except each worker's own output slot.
//
// The whole-batch functions Filter, Aggregate and Pool.HashJoinMem are the
// serial reference, and no production code calls them: package reference,
// which only tests import, runs plans on them one operator at a time, and
// the oracle tests hold every pipeline to their output bit for bit. They
// live here, not there, because this package's own oracle tests use them
// and cannot import a package that imports exec. Aggregate is a plain row
// walk, one state per spec, sharing none of the sink's slots, folds or
// group walks: the aggregate oracle is independent of what it checks. The reference has no extractor
// of its own: its input is the same extraction stream (BatchSource) a
// pipeline consumes, drained into one full-width batch.
//
// # Memory governance and determinism
//
// Operators run against a query-scoped memory context (QueryMem): a budget
// ledger (internal/mem) that join tables, the aggregation sink's group
// table and recycler-cache admissions reserve working-set bytes from, plus
// a per-query temp directory for spill files, removed on every query exit
// path. A nil QueryMem — or an unlimited ledger — reproduces the unbounded
// engine exactly. A finite budget never selects a different engine; it
// moves one breaker and tightens the accounting:
//
//   - HashJoin goes grace-hash. The build is radix-partitioned (even under
//     the serial engine); each partition's table is granted before it is
//     built, and a denied partition serializes its (row, hash, encoded key)
//     build rows to a spill file in the same ascending row order the
//     in-memory build would insert them. A build that spilled cannot be
//     probed morsel by morsel — a spilled partition is rebuilt once and
//     must then meet every probe row that hashes into it — so the join
//     becomes a pipeline breaker, decided right after the build and before
//     any morsel flows: the stages so far run into a CollectSink,
//     ProbeStage.ProbeBatch probes resident partitions as usual (spilled
//     rows set aside) and then each spilled partition — strictly one at a
//     time, in ascending partition index — rebuilt from its file, and the
//     remaining stages continue over the joined batch. Nothing restarts:
//     the source, extraction included, is read exactly once.
//   - AggSink reserves, once per consumed morsel, an estimate for the
//     groups and COUNT(DISTINCT) set entries that morsel created, and does
//     not spill. It is the pipeline's single consumer with a single group
//     table whose final states must all be resident to be emitted, so
//     deferring rows to disk could only postpone the same allocation — and
//     the rows would have to carry their evaluated arguments, since the
//     morsel they indexed is gone by then. A denied reservation is taken
//     unconditionally instead: the denial registers as pressure (join
//     partitions spill and cache admissions are declined sooner) and the
//     overage is recorded in the ledger's high-water mark.
//
// Why spilling preserves bit-identity. The engine's determinism never
// depended on *where* a partition is processed, only on the *order of
// row-level effects within it*: a join chain must link build rows
// ascending. Spill files record rows in exactly that order, and the
// rebuild inserts them in file order, so a spilled partition produces the
// same chains as its resident twin. What remains is interleaving across
// partitions: join matches are merged back by left row (each left key
// hashes to exactly one partition, so the merge has no cross-list ties).
// Spill order is therefore fixed by partition index — never by which worker
// or grant race finished first — and output is bit-identical to the
// in-memory path at every worker count, morsel size and budget. Budget
// pressure can change only *stats* (which partitions spilled) and where
// the pipeline breaks, never results.
//
// What the budget bounds: the concurrent working set of join builds
// (resident partitions, plus one spilled partition being rebuilt at a
// time, reserved unconditionally as the minimum the algorithm can run in —
// overage is recorded in the ledger's high-water mark). The batch collected
// at a spilled-build breaker, the aggregation's group table and the final
// output columns of a query must still fit in memory; external output runs
// are a recorded follow-on.
//
// Morsels in flight are not reserved from the ledger; what keeps them small
// is their width. A morsel's columns are whatever its source emits, and the
// lazy extraction stream emits only the universal-table columns the
// statement reads (plan.LazyExtract.Cols) — two of 24 for a Figure-1 Q2 —
// so the bytes a stage gathers, a spilled-build breaker collects and the
// garbage collector walks all shrink by the same factor. Only a bare
// SELECT * pays for the full width, because that width is its answer.
package exec

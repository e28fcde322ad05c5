package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/sql"
)

// Morsel is the unit of work flowing through a push pipeline: a batch view
// plus a selection vector of the rows still alive. Sel == nil means all
// rows. Stages refine Sel (filters) or replace the batch (probes) without
// materializing intermediates; only the sink gathers.
type Morsel struct {
	B   *column.Batch
	Sel []int32 // ascending row indices into B; nil = every row
}

// Rows returns the number of live rows in the morsel.
func (m Morsel) Rows() int {
	if m.Sel != nil {
		return len(m.Sel)
	}
	if m.B == nil {
		return 0
	}
	return m.B.NumRows()
}

// view materializes the live rows as a batch (the sink-side gather).
func (m Morsel) view() *column.Batch {
	if m.Sel == nil {
		return m.B
	}
	return m.B.Gather(m.Sel)
}

// BatchSource produces the morsel stream a pipeline consumes. Next is
// called from a single goroutine; ok == false ends the stream. Close is
// called exactly once when the pipeline stops, error paths included.
type BatchSource interface {
	Next() (m Morsel, ok bool, err error)
	Close()
}

// batchMorsels adapts a materialized batch into a BatchSource of
// contiguous row-range views.
type batchMorsels struct {
	b      *column.Batch
	n      int
	pos    int
	morsel int
}

// NewBatchMorsels returns a BatchSource over b with the given morsel size
// (rows; <= 0 selects DefaultMorselRows).
func NewBatchMorsels(b *column.Batch, morselRows int) BatchSource {
	if morselRows <= 0 {
		morselRows = DefaultMorselRows
	}
	return &batchMorsels{b: b, n: b.NumRows(), morsel: morselRows}
}

func (s *batchMorsels) Next() (Morsel, bool, error) {
	if s.pos >= s.n {
		return Morsel{}, false, nil
	}
	hi := s.pos + s.morsel
	if hi > s.n {
		hi = s.n
	}
	m := Morsel{B: s.b.Range(s.pos, hi)}
	s.pos = hi
	return m, true, nil
}

func (s *batchMorsels) Close() {}

// PipeStage is one fused operator of a push pipeline. Process must be safe
// for concurrent use: morsels of one pipeline run flow through the same
// stage on several workers at once. Rows reports the stage's cumulative
// input and output row counters (per-operator selectivity for the stats
// surface).
type PipeStage interface {
	Label() string
	Process(m Morsel) (Morsel, error)
	Rows() (in, out int64)
}

// PipeSink terminates a pipeline. Consume is called from one goroutine in
// source order (the driver reorders worker results by sequence number), so
// order-sensitive state — float accumulation, group first-appearance —
// folds exactly as the serial engine would. Finish materializes the result.
type PipeSink interface {
	Consume(m Morsel) error
	Finish() (*column.Batch, error)
}

// PipelineStats describes one pipeline run.
type PipelineStats struct {
	Morsels int
}

// RunPipeline drives src through the stages into sink. A nil or one-worker
// pool runs every morsel on the calling goroutine. Any other pool looks one
// morsel ahead: a source that ends within its first morsel (a metadata
// scan, a point lookup) runs there too and never pays for goroutines and
// channel hops; otherwise the caller folds the first morsel while a feeder
// goroutine sequences the rest and workers apply the stage chain to them
// concurrently, and the caller then releases their results to the sink
// strictly in sequence order. The sink observes exactly the serial order
// at every worker count, and the first error in sequence order is the one
// returned — the same error the serial loop would hit. A panic in the
// source's Next, a stage or the sink's Consume, on whichever goroutine, is
// recovered into a *PanicError and is that morsel's error. RunPipeline
// returns only after every goroutine it started has exited.
//
// ctx stops the run early: before each morsel, the caller's loop and the
// feeder load one atomic flag that is set when ctx ends, and stop once it
// is. A run whose ctx has ended fails with ctx.Err() even if it reached the
// end of its source, so a cancelled query never answers with part of its
// rows.
func (p *Pool) RunPipeline(ctx context.Context, src BatchSource, stages []PipeStage, sink PipeSink) (st PipelineStats, err error) {
	defer src.Close()
	var done atomic.Bool
	defer context.AfterFunc(ctx, func() { done.Store(true) })()
	defer func() {
		if err == nil {
			err = ctx.Err()
		}
	}()
	fold := func(m Morsel) error {
		m, err := applyStages(stages, m)
		if err != nil || m.Rows() == 0 {
			return err
		}
		return consume(sink, m)
	}
	type result struct {
		seq int
		m   Morsel
		err error
	}
	first, ok, err := pull(src)
	if err != nil || !ok {
		return st, err
	}
	st.Morsels = 1
	serial := p.Workers() <= 1
	var head result // what follows first: seq 0 of the parallel driver
	if !serial {
		head.m, ok, head.err = pull(src)
		serial = !ok && head.err == nil
	}
	if serial {
		for m := first; ; st.Morsels++ {
			if err := fold(m); err != nil || !ok || done.Load() { // !ok: the look-ahead met the end
				return st, err
			}
			if m, ok, err = pull(src); err != nil || !ok {
				return st, err
			}
		}
	}

	w := p.Workers()
	in := make(chan result, w)
	out := make(chan result, 2*w)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup // the feeder and the workers; out closes after them
	wg.Add(w + 1)
	var fed atomic.Int64 // morsels the feeder handed out
	go func() {          // feeder: owns src, assigns sequence numbers
		defer wg.Done()
		defer close(in)
		for r := head; ; {
			if r.err == nil {
				fed.Add(1)
			}
			select {
			case in <- r:
			case <-stop:
				return
			}
			if r.err != nil || done.Load() {
				return
			}
			m, ok, err := pull(src)
			if err == nil && !ok {
				return
			}
			r = result{seq: r.seq + 1, m: m, err: err}
		}
	}()

	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for r := range in {
				if r.err == nil {
					r.m, r.err = applyStages(stages, r.m)
				}
				select {
				case out <- r:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()

	// Consumer: the first morsel, then the workers' results reordered by
	// sequence number; stop at the first in-order error.
	next := 0
	pending := make(map[int]result)
	firstErr := fold(first)
	if firstErr != nil {
		halt()
	}
	for r := range out {
		if firstErr == nil && done.Load() {
			firstErr = ctx.Err()
			halt()
		}
		if firstErr != nil {
			continue // draining after halt
		}
		pending[r.seq] = r
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if q.err != nil {
				firstErr = q.err
				halt()
				break
			}
			if q.m.Rows() == 0 {
				continue
			}
			if err := consume(sink, q.m); err != nil {
				firstErr = err
				halt()
				break
			}
		}
	}
	halt()
	st.Morsels += int(fed.Load())
	return st, firstErr
}

func applyStages(stages []PipeStage, m Morsel) (_ Morsel, err error) {
	defer RecoverTo(&err)
	for _, stage := range stages {
		if m.Rows() == 0 {
			return Morsel{}, nil
		}
		m, err = stage.Process(m)
		if err != nil {
			return Morsel{}, err
		}
	}
	return m, nil
}

// pull and consume are src.Next and sink.Consume with a panic recovered
// into the returned error.
func pull(src BatchSource) (m Morsel, ok bool, err error) {
	defer RecoverTo(&err)
	return src.Next()
}

func consume(sink PipeSink, m Morsel) (err error) {
	defer RecoverTo(&err)
	return sink.Consume(m)
}

// PanicError is a panic recovered on an engine goroutine: by RunPipeline in
// a source, stage or sink, returned as the error of the morsel that raised
// it, by Pool.Run in a task, returned as that task's error, or by RecoverTo
// wherever else it is deferred.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic: %v\n%s", e.Value, e.Stack)
}

// Unwrap returns the panic value when it is an error (a runtime error, say).
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// RecoverTo, deferred, turns a panic of the deferring function into *err as
// a *PanicError.
func RecoverTo(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

// FilterStage refines each morsel's selection vector through a predicate
// list — the serial Filter's loop, minus the gather.
type FilterStage struct {
	preds   []sql.Expr
	in, out atomic.Int64
}

// NewFilterStage builds a filter stage over the given conjuncts.
func NewFilterStage(preds []sql.Expr) *FilterStage {
	return &FilterStage{preds: preds}
}

// Label implements PipeStage.
func (s *FilterStage) Label() string { return "filter " + exprText(s.preds) }

// Rows implements PipeStage.
func (s *FilterStage) Rows() (int64, int64) { return s.in.Load(), s.out.Load() }

// Process implements PipeStage: exactly the serial Filter's selection-
// vector threading over the morsel view; a nil vector from a fast path
// keeps meaning "all rows".
func (s *FilterStage) Process(m Morsel) (Morsel, error) {
	s.in.Add(int64(m.Rows()))
	sel, err := selectWhere(s.preds, m.B, m.Sel)
	if err != nil {
		return Morsel{}, err
	}
	out := Morsel{B: m.B, Sel: sel}
	s.out.Add(int64(out.Rows()))
	return out, nil
}

// ProjectStage narrows each morsel to the listed columns it has, in list
// order, sharing their vectors: it moves no row and copies no value, so a
// sink downstream gathers only what is listed.
type ProjectStage struct{ cols []string }

// NewProjectStage builds a stage that keeps the named columns.
func NewProjectStage(cols []string) *ProjectStage { return &ProjectStage{cols: cols} }

// Label implements PipeStage.
func (s *ProjectStage) Label() string { return "project " + strings.Join(s.cols, ", ") }

// Rows implements PipeStage. A projection keeps every row; it counts none.
func (s *ProjectStage) Rows() (int64, int64) { return 0, 0 }

// Process implements PipeStage.
func (s *ProjectStage) Process(m Morsel) (Morsel, error) {
	return Morsel{B: m.B.Select(s.cols), Sel: m.Sel}, nil
}

// selectWhere threads the selection vector sel (nil = every row of b)
// through the predicates in order, stopping once no row is left.
func selectWhere(preds []sql.Expr, b *column.Batch, sel []int32) ([]int32, error) {
	for _, pred := range preds {
		sv, err := evalPredSel(pred, b, sel)
		if err != nil {
			return nil, err
		}
		sel = sv
		if sel != nil && len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

func exprText(preds []sql.Expr) string {
	text := ""
	for i, p := range preds {
		if i > 0 {
			text += " AND "
		}
		text += p.String()
	}
	return text
}

// JoinProbe is a hash-join build side prepared for pipelined probing: the
// table is built once (a pipeline breaker), then probe stages stream left
// morsels against it.
type JoinProbe struct {
	jt        *joinTable
	right     *column.Batch
	rightKeys []string
}

// BuildProbeTable builds the join table over the right (build) side.
// leftProto supplies the probe side's schema — a zero-row prototype of the
// morsels that will flow through the stage. Once ctx is done the build
// spills no further partition and returns ctx.Err().
func BuildProbeTable(ctx context.Context, leftProto, right *column.Batch, leftKeys, rightKeys []string, p *Pool, qm *QueryMem) (*JoinProbe, error) {
	jt, err := buildJoinTable(ctx, leftProto, right, leftKeys, rightKeys, p, qm)
	if err != nil {
		return nil, err
	}
	return &JoinProbe{jt: jt, right: right, rightKeys: rightKeys}, nil
}

// Spilled reports whether the build spilled any partition. A spilled build
// is a pipeline breaker: the grace-hash probe rebuilds one spilled
// partition at a time against every probe row that hashes into it, so it
// needs the whole probe side — the caller collects the morsels so far and
// probes them with ProbeStage.ProbeBatch instead of streaming them through
// Process.
func (jp *JoinProbe) Spilled() bool { return jp.jt.spilled != nil }

// Stats returns the build-side stats, spill counters included (probe
// counters are on the stage).
func (jp *JoinProbe) Stats() JoinStats { return jp.jt.stats }

// Close releases the build table's memory grant. Idempotent.
func (jp *JoinProbe) Close() { jp.jt.grant.Close() }

// NewStage returns the probe stage over this build table.
func (jp *JoinProbe) NewStage() *ProbeStage { return &ProbeStage{jp: jp} }

// Proto returns the stage's output schema for a given input schema: the
// probe output of an empty morsel.
func (jp *JoinProbe) Proto(leftProto *column.Batch) (*column.Batch, error) {
	return assembleJoin(leftProto, jp.right, jp.rightKeys, nil, nil)
}

// ProbeStage probes each morsel's live rows against a prebuilt join table
// and assembles the matched left+right rows into a fresh morsel.
type ProbeStage struct {
	jp      *JoinProbe
	in, out atomic.Int64
}

// Label implements PipeStage.
func (s *ProbeStage) Label() string {
	text := ""
	for i, k := range s.jp.jt.lkeys {
		if i > 0 {
			text += ", "
		}
		text += k
	}
	return "probe " + text
}

// Rows implements PipeStage (in = rows probed, out = matches).
func (s *ProbeStage) Rows() (int64, int64) { return s.in.Load(), s.out.Load() }

// Process implements PipeStage.
func (s *ProbeStage) Process(m Morsel) (Morsel, error) {
	s.in.Add(int64(m.Rows()))
	lsel, rsel, err := s.jp.jt.probeMorsel(m.B, m.Sel)
	if err != nil {
		return Morsel{}, err
	}
	s.out.Add(int64(len(lsel)))
	out, err := assembleJoin(m.B, s.jp.right, s.jp.rightKeys, lsel, rsel)
	if err != nil {
		return Morsel{}, err
	}
	return Morsel{B: out}, nil
}

// ProbeBatch is the breaker form of Process for a build that spilled: it
// probes every row of a materialized batch — resident partitions first,
// then each spilled partition rebuilt from disk one at a time — and
// assembles the joined batch in the order the morsel-wise probe of the
// same rows would have produced. Once ctx is done it rebuilds no further
// spilled partition and returns ctx.Err().
func (s *ProbeStage) ProbeBatch(ctx context.Context, b *column.Batch) (*column.Batch, error) {
	lsel, rsel, err := s.jp.jt.probeAll(ctx, b)
	if err != nil {
		return nil, err
	}
	s.in.Add(int64(b.NumRows()))
	s.out.Add(int64(len(lsel)))
	return assembleJoin(b, s.jp.right, s.jp.rightKeys, lsel, rsel)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

// CollectSink materializes the pipeline's surviving rows — the final-output
// pipeline breaker. Gathers happen here, once per morsel, instead of once
// per operator.
type CollectSink struct {
	proto *column.Batch
	out   *column.Batch
}

// NewCollectSink builds a collector; proto supplies the output schema when
// no morsel survives.
func NewCollectSink(proto *column.Batch) *CollectSink { return &CollectSink{proto: proto} }

// Consume implements PipeSink.
func (s *CollectSink) Consume(m Morsel) error {
	part := m.view()
	if s.out == nil {
		// Fresh columns, so appending never mutates a shared morsel view.
		cols := make([]*column.Column, part.NumCols())
		for i := range cols {
			c := part.ColAt(i)
			cols[i] = column.New(c.Name(), c.Type())
		}
		s.out = column.MustNewBatch(cols...)
	}
	return s.out.AppendBatch(part)
}

// Finish implements PipeSink.
func (s *CollectSink) Finish() (*column.Batch, error) {
	if s.out == nil {
		return s.proto, nil
	}
	return s.out, nil
}

// AggSink folds morsels straight into aggregation state — the fused
// scan → filter → aggregate path with no intermediate batch. Morsels arrive
// in source order (the driver guarantees it) and every group folds its rows
// left to right, so float accumulation and group first-appearance order
// match the serial engine exactly at every morsel size and worker count. A
// global (ungrouped) aggregate is the group of zero key columns, created up
// front (SQL's one row over zero rows) and folded like any other. Each
// group holds one state per slot (aggSlots), and each slot's argument is
// evaluated once per morsel.
//
// Grouping is hash-based with two key paths: a single integer-family key
// indexes a map[int64] directly (nulls get a dedicated group), and
// composite or string keys are encoded into a reused byte buffer with
// fixed-width numeric encoding, whose map[string] lookups do not allocate.
// Either is walked once per row — or, when every key column of the morsel
// arrives in constant-run form (the F.* and R.* columns of the universal
// table), once per run: one lookup for the run, then each slot folded over
// the run's live rows by one fold call (consumeRuns). Zero key columns are
// trivially all in run form: the whole morsel is one stretch of the one
// group. Both walks create groups in first-appearance order and fold each
// group's rows in row order, so they produce the same bits.
//
// The sink accounts its working set on the query's ledger — one
// reservation per Consume for the groups and COUNT(DISTINCT) set entries
// that morsel created, taken unconditionally when denied — and does not
// spill; doc.go, "Memory governance", says why.
type AggSink struct {
	groupBy []sql.Expr
	aggs    []AggSpec
	slots   []AggSpec // one spec per distinct argument
	slot    []int     // aggs[i] reads its state at slot[i]
	grant   *mem.Grant

	intKey      bool
	hasDistinct bool
	protoArgs   []aggArg

	// A persistent group index across morsels plus captured key values (the
	// key columns live only as long as their morsel).
	groups   []aggGroup
	idxInt   map[int64]int
	nullGrp  int
	idxGen   map[string]int
	keybuf   []byte
	keys     []keyRun // consumeRuns' cursors, reused across morsels
	captured []*column.Column

	rowsIn, runsIn int64
	grown          int64 // bytes of group table and seen sets the current morsel has added
}

// NewAggSink builds an aggregation sink. proto is a zero-row prototype of
// the pipeline's morsels; evaluating the expressions over it pins key and
// argument types before any data flows. The caller must Close the sink on
// every path (Finish does so itself).
func NewAggSink(proto *column.Batch, groupBy []sql.Expr, aggs []AggSpec, qm *QueryMem) (*AggSink, error) {
	slots, slot := aggSlots(aggs)
	keyCols, args, err := evalAggInputs(proto, groupBy, slots)
	if err != nil {
		return nil, err
	}
	s := &AggSink{
		groupBy:   groupBy,
		aggs:      aggs,
		slots:     slots,
		slot:      slot,
		grant:     qm.Ledger().NewGrant(),
		protoArgs: args,
		nullGrp:   -1,
	}
	for _, a := range slots {
		s.hasDistinct = s.hasDistinct || a.Distinct
	}
	s.intKey = intKeyed(groupBy, keyCols)
	if s.intKey {
		s.idxInt = make(map[int64]int, 64)
	} else {
		s.idxGen = make(map[string]int, 64)
		s.keybuf = make([]byte, 0, 16*len(keyCols))
	}
	s.captured = make([]*column.Column, len(keyCols))
	for i, kc := range keyCols {
		s.captured[i] = column.New(kc.Name(), kc.Type())
	}
	if len(groupBy) == 0 {
		// The global group exists before any row does, under the empty key
		// runGroup encodes for zero key columns.
		s.groups = []aggGroup{{states: make([]aggState, len(slots))}}
		s.idxGen[""] = 0
	}
	return s, nil
}

// RowsIn returns the number of rows folded so far.
func (s *AggSink) RowsIn() int64 { return s.rowsIn }

// RunsIn returns the number of key runs folded so far: 0 unless morsels
// arrived with every key column in run form, and 0 for a global aggregate,
// which has no key to run.
func (s *AggSink) RunsIn() int64 { return s.runsIn }

// Close releases the sink's ledger reservations. Idempotent.
func (s *AggSink) Close() { s.grant.Close() }

// seenEntries counts the COUNT(DISTINCT) set entries held by states.
func seenEntries(states []aggState) int64 {
	var n int64
	for i := range states {
		n += int64(len(states[i].seen))
	}
	return n
}

// foldRow folds row into one group's states and returns the seen-set
// entries that added (always 0 without a DISTINCT aggregate).
func foldRow(states []aggState, args []aggArg, row int, distinct bool) int64 {
	if !distinct {
		updateAggStates(states, args, row)
		return 0
	}
	before := seenEntries(states)
	updateAggStates(states, args, row)
	return seenEntries(states) - before
}

// Consume implements PipeSink.
func (s *AggSink) Consume(m Morsel) error {
	keyCols, args, err := evalAggInputs(m.B, s.groupBy, s.slots)
	if err != nil {
		return err
	}
	live := m.Rows()
	s.rowsIn += int64(live)
	s.grown = 0
	if s.keyRuns(keyCols) {
		err = s.consumeRuns(args, m.Sel, m.B.NumRows())
	} else {
		err = s.consumeGrouped(keyCols, args, m.Sel, live)
	}
	if err != nil {
		return err
	}
	if !s.grant.Try(s.grown) {
		s.grant.Must(s.grown)
	}
	return nil
}

// liveRow returns the i-th live row under the selection vector sel; nil
// selects every row, so no identity vector is ever built.
func liveRow(sel []int32, i int) int {
	if sel == nil {
		return i
	}
	return int(sel[i])
}

// addGroup appends a group and charges its table entry to the morsel.
func (s *AggSink) addGroup(keyLen int) int {
	s.groups = append(s.groups, aggGroup{
		firstRow: int32(len(s.groups)),
		states:   make([]aggState, len(s.slots)),
	})
	s.grown += aggGroupBytes(len(s.slots), keyLen)
	return len(s.groups) - 1
}

// consumeGrouped folds one morsel into the group table row by row.
func (s *AggSink) consumeGrouped(keyCols []*column.Column, args []aggArg, sel []int32, live int) error {
	// newRows collects the morsel-local first rows of groups created by this
	// morsel, in creation order (= ascending global first appearance), so
	// their key values can be captured before the morsel is dropped.
	var newRows []int32
	var seen int64
	if s.intKey {
		ints := keyCols[0].Int64s()
		nulls := keyCols[0].Nulls()
		for i := 0; i < live; i++ {
			row := liveRow(sel, i)
			var gi int
			if nulls != nil && nulls[row] {
				if s.nullGrp < 0 {
					s.nullGrp = s.addGroup(1)
					newRows = append(newRows, int32(row))
				}
				gi = s.nullGrp
			} else {
				k := ints[row]
				g, ok := s.idxInt[k]
				if !ok {
					g = s.addGroup(9)
					newRows = append(newRows, int32(row))
					s.idxInt[k] = g
				}
				gi = g
			}
			seen += foldRow(s.groups[gi].states, args, row, s.hasDistinct)
		}
	} else {
		for i := 0; i < live; i++ {
			row := liveRow(sel, i)
			buf := s.keybuf[:0]
			for _, kc := range keyCols {
				buf = appendRowKey(buf, kc, row)
			}
			s.keybuf = buf
			gi, ok := s.idxGen[string(buf)]
			if !ok {
				gi = s.addGroup(len(buf))
				newRows = append(newRows, int32(row))
				s.idxGen[string(buf)] = gi
			}
			seen += foldRow(s.groups[gi].states, args, row, s.hasDistinct)
		}
	}
	s.grown += seen * distinctSeenBytes
	for i, kc := range keyCols {
		if err := s.captured[i].AppendColumn(kc.Gather(newRows)); err != nil {
			return err
		}
	}
	return nil
}

// keyRun is one group-key column in run form, with the run the walk of
// consumeRuns stands in.
type keyRun struct {
	vals *column.Column
	ends []int32
	x    int
}

// keyRuns unpacks the key columns' run form into s.keys, reporting whether
// every one of them has it.
func (s *AggSink) keyRuns(keyCols []*column.Column) bool {
	s.keys = s.keys[:0]
	for _, kc := range keyCols {
		vals, ends, ok := kc.Runs()
		if !ok {
			return false
		}
		s.keys = append(s.keys, keyRun{vals: vals, ends: ends})
	}
	return true
}

// consumeRuns folds one morsel of n rows whose key columns are all in run
// form (s.keys). It walks the merged run boundaries: between two of them
// every key is constant, so the rows there — those sel keeps, when a filter
// refined the morsel — share one group, found with one key encode and one
// lookup, and each slot folds over them in one fold call. A stretch no live
// row falls in creates no group, as in the row walk.
func (s *AggSink) consumeRuns(args []aggArg, sel []int32, n int) error {
	keys := s.keys
	p := 0 // sel[p:] are the live rows at or past lo
	for lo := 0; lo < n && (sel == nil || p < len(sel)); {
		hi := n
		for k := range keys {
			hi = min(hi, int(keys[k].ends[keys[k].x]))
		}
		q := p // sel[p:q] are the live rows below hi
		if sel != nil {
			j, _ := slices.BinarySearch(sel[p:], int32(hi))
			q += j
		}
		if sel == nil || q > p {
			gi, err := s.runGroup()
			if err != nil {
				return err
			}
			if len(keys) > 0 {
				s.runsIn++
			}
			states := s.groups[gi].states
			before := int64(0)
			if s.hasDistinct {
				before = seenEntries(states)
			}
			for i := range args {
				fold(&states[i], &args[i], sel[p:q], lo, hi) // nil sel: p = q = 0
			}
			if s.hasDistinct {
				s.grown += (seenEntries(states) - before) * distinctSeenBytes
			}
		}
		for k := range keys {
			if int(keys[k].ends[keys[k].x]) == hi {
				keys[k].x++
			}
		}
		lo, p = hi, q
	}
	return nil
}

// runGroup finds the group of the keys' current runs, creating it — and
// capturing its key values, one boxed value per key column — on first
// appearance.
func (s *AggSink) runGroup() (int, error) {
	keys := s.keys
	if s.intKey {
		k := &keys[0]
		if k.vals.IsNull(k.x) {
			if s.nullGrp >= 0 {
				return s.nullGrp, nil
			}
			s.nullGrp = s.addGroup(1)
		} else {
			v := k.vals.Int64s()[k.x]
			if gi, ok := s.idxInt[v]; ok {
				return gi, nil
			}
			s.idxInt[v] = s.addGroup(9)
		}
	} else {
		buf := s.keybuf[:0]
		for k := range keys {
			buf = appendRowKey(buf, keys[k].vals, keys[k].x)
		}
		s.keybuf = buf
		if gi, ok := s.idxGen[string(buf)]; ok {
			return gi, nil
		}
		s.idxGen[string(buf)] = s.addGroup(len(buf))
	}
	for k := range keys {
		if err := s.captured[k].AppendValue(keys[k].vals.Value(keys[k].x)); err != nil {
			return 0, err
		}
	}
	return len(s.groups) - 1, nil
}

// ZonePartial stands in for rows a source answered from statistics: over
// the one float argument, with no NaN or −0 and every partial sum exact, so
// where they fold changes no bit of the answer.
type ZonePartial struct {
	Count         int64
	Min, Max, Sum float64
}

// FoldPartial folds p into an ungrouped sink, once, before Finish.
func (s *AggSink) FoldPartial(p ZonePartial) {
	for i := 0; p.Count > 0 && i < len(s.slots); i++ {
		st := &s.groups[0].states[i]
		if st.count += p.Count; !s.protoArgs[i].star {
			st.sum += p.Sum
			st.minF, st.maxF = bounds(st.any, st.minF, st.maxF, p.Min)
			st.minF, st.maxF = bounds(true, st.minF, st.maxF, p.Max)
			st.any = true
		}
	}
}

// Finish implements PipeSink. The ledger reservations are held until the
// output columns have been built from the group table, then released.
func (s *AggSink) Finish() (*column.Batch, error) {
	defer s.Close()
	// groups are in creation order = first-appearance order, with firstRow
	// indexing the captured key columns.
	return buildAggOutput(s.captured, s.groupBy, s.protoArgs, s.aggs, s.slot, s.groups)
}

package plan

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
)

// Pipeline decomposition: a plan spine of the shape
//
//	[Limit] [Sort] [Project] [Aggregate] (Filter | Join)* (Scan | LazyExtract)
//
// runs as one morsel-wise push pipeline, and every plan Build produces has
// that shape — there is one execution engine. The leaf produces morsels
// (table row ranges, or the lazy extraction stream), Filter and Join probe
// stages run fused over each morsel's selection vector, and the pipeline
// ends at one of its breakers: the aggregation sink or the final-output
// collector. Joins run in the order the SQL states them. Hash-join build
// sides (a join answered by index probe has none), sort, and the metadata
// plan under a LazyExtract materialize — they need their whole input by
// nature. The metadata plan materializes only what its scans carry
// (Scan.Cols) and, of that, only what extraction takes (MetaCols): stages
// that drop a column reference, never a row, narrow the morsels before the
// join and before the collector.
//
// The memory budget (Env.Mem) never changes the engine, only where the
// breakers fall. A join build that spilled partitions to disk cannot be
// probed morsel by morsel — the grace-hash probe rebuilds one spilled
// partition at a time against every probe row that hashes into it — so
// that join becomes a breaker, decided right after its build and before
// any morsel flows: the stages so far run into a collector, the collected
// batch is probed whole, and the remaining stages continue over the joined
// batch. Nothing aborts mid-flight and the leaf (extraction included) runs
// exactly once. The aggregation sink reserves its group table from the
// same ledger and does not spill (package exec's "Memory governance"
// says why).
//
// The bit-identity tests compare these pipelines against an
// operator-at-a-time reference that only tests link (package reference). It
// extracts through the same source — there is one extraction driver — but
// drains the stream whole, at full width and without a sample window
// (ExtractAll) before any operator sees a row.

// RowsServedCounter reports how many rows a source has delivered, how many
// samples of the records it read fell outside its sample window, and how
// many columns of each morsel were in constant-run form; the extraction
// stream implements it so a pipeline can log its extract event.
type RowsServedCounter interface {
	RowsServed() (rows, trimmed int64, runCols int)
}

// pipePlan is a decomposed pipeline spine.
type pipePlan struct {
	leaf Node       // *Scan or *LazyExtract
	ops  []Node     // *Filter / *Join stages, leaf-to-root order
	agg  *Aggregate // optional aggregation breaker
	post []Node     // *Project / *Sort / *Limit, outermost-first
	// keep, when non-nil, narrows what a spine without an aggregate
	// collects to these columns: a LazyExtract's MetaCols, for its
	// metadata subplan.
	keep []string
}

// decompose peels a plan into a pipePlan, reporting whether the spine fits
// the pipeline shape.
func decompose(n Node) (*pipePlan, bool) {
	pp := &pipePlan{}
peel:
	for {
		switch x := n.(type) {
		case *Limit:
			pp.post = append(pp.post, x)
			n = x.Child
		case *Sort:
			pp.post = append(pp.post, x)
			n = x.Child
		case *Project:
			pp.post = append(pp.post, x)
			n = x.Child
		default:
			break peel
		}
	}
	if a, ok := n.(*Aggregate); ok {
		pp.agg = a
		n = a.Child
	}
	var rev []Node
	for {
		switch x := n.(type) {
		case *Filter:
			rev = append(rev, x)
			n = x.Child
		case *Join:
			rev = append(rev, x)
			n = x.L
		case *Scan, *LazyExtract:
			pp.leaf = n
			for i := len(rev) - 1; i >= 0; i-- {
				pp.ops = append(pp.ops, rev[i])
			}
			return pp, true
		default:
			return nil, false
		}
	}
}

// ExtractProto is the universal table's zero-row schema for a metadata
// batch: the meta columns plus the two data columns extraction appends,
// restricted to cols (in that order) when non-nil. It is the single
// definition of what an extraction emits — the pipeline types its stages
// from it and the extraction source lays its rows out by it. A listed
// column is built from its name and type alone: a narrowed extraction is
// not charged for the meta columns it does not list.
func ExtractProto(meta *column.Batch, cols []string) (*column.Batch, error) {
	if cols == nil {
		cols = append(meta.Names(), "D.sample_time", "D.sample_value")
	}
	listed := make([]*column.Column, len(cols))
	for i, name := range cols {
		switch c, ok := meta.Col(name); {
		case ok:
			listed[i] = column.New(name, c.Type())
		case name == "D.sample_time":
			listed[i] = column.New(name, column.Timestamp)
		case name == "D.sample_value":
			listed[i] = column.New(name, column.Float64)
		default:
			return nil, fmt.Errorf("plan: extract column %q is not in the universal table (have %v)", name, meta.Names())
		}
	}
	return column.NewBatch(listed...)
}

// pipeRun is one pipelined execution in flight: the segment being assembled
// (a source plus the stages not yet run over it) and everything that must
// be released whichever way the execution ends.
type pipeRun struct {
	env     *Env
	src     exec.BatchSource // nil while RunPipeline, which closes it, has it
	whole   *column.Batch    // the batch src ranges over; nil for a stream
	proto   *column.Batch    // zero-row schema of the morsels leaving the last stage
	stages  []exec.PipeStage
	closers []func() // join-table and sink grants
	reports []func() // per-operator stats, events and span row tallies, leaf to root
	morsels int
	fused   int
}

// close stops a source no segment consumed and releases every grant. It
// runs on every exit path of executePipelined.
func (r *pipeRun) close() {
	if r.src != nil {
		r.src.Close()
	}
	for _, c := range r.closers {
		c()
	}
}

// span opens st's Add-style trace span (nil when tracing is off): stage
// work runs on pool workers, so its time is cumulative across them.
func (r *pipeRun) span(st exec.PipeStage) *obs.Span {
	if r.env.Trace == nil {
		return nil
	}
	sp := r.env.Trace.Child("stage " + st.Label())
	r.reports = append(r.reports, func() {
		_, kept := st.Rows()
		sp.AddRows(kept)
	})
	return sp
}

// addStage appends st to the segment being assembled.
func (r *pipeRun) addStage(st exec.PipeStage) {
	r.fused++
	if sp := r.span(st); sp != nil {
		st = &timedStage{inner: st, sp: sp}
	}
	r.stages = append(r.stages, st)
}

// addFilter appends a filter stage; event logs its row counts afterwards.
func (r *pipeRun) addFilter(preds []sql.Expr, event func(in, kept int64)) {
	fs := exec.NewFilterStage(preds)
	r.addStage(fs)
	r.reports = append(r.reports, func() {
		in, kept := fs.Rows()
		r.env.Stats.recordFilterStage(in, kept)
		event(in, kept)
	})
}

// drain runs the assembled segment into sink and returns the sink's result.
func (r *pipeRun) drain(sink exec.PipeSink, span string) (*column.Batch, error) {
	if r.env.Trace != nil {
		sink = &timedSink{inner: sink, sp: r.env.Trace.Child(span)}
	}
	src, stages := r.src, r.stages
	r.src, r.stages, r.whole = nil, nil, nil
	ps, err := r.env.Pool.RunPipeline(cmp.Or(r.env.Ctx, context.Background()), src, stages, sink)
	r.morsels += ps.Morsels
	if err != nil {
		return nil, err
	}
	return finish(sink)
}

// finish is sink.Finish with a panic recovered into the returned error, as
// RunPipeline recovers one in Consume.
func finish(sink exec.PipeSink) (_ *column.Batch, err error) {
	defer exec.RecoverTo(&err)
	return sink.Finish()
}

// collect drains the segment into a final-output collector. A segment with
// no stage over a materialized batch — a bare table read — is that batch.
func (r *pipeRun) collect() (*column.Batch, error) {
	if b := r.whole; b != nil && len(r.stages) == 0 {
		r.src.Close()
		r.src, r.whole = nil, nil
		return b, nil
	}
	return r.drain(exec.NewCollectSink(r.proto), "stage collect")
}

// project narrows the segment's morsels to cols, when they carry more: a
// stage that only drops column references, so it is neither timed nor
// counted among the fused operators.
func (r *pipeRun) project(cols []string) {
	if narrowed := r.proto.Select(cols); narrowed.NumCols() < r.proto.NumCols() {
		r.stages = append(r.stages, exec.NewProjectStage(cols))
		r.proto = narrowed
	}
}

// resume starts the next segment over a materialized breaker result.
func (r *pipeRun) resume(b *column.Batch) {
	r.src = exec.NewBatchMorsels(b, r.env.Pool.MorselRows())
	r.whole = b
	r.proto = b.Range(0, 0)
}

// addJoin appends x's probe stage: an index probe when the build side is
// reached through its stored order (addIndexJoin), else a hash probe of a
// table built over the executed build side — or, when that build spilled,
// a pipeline break: collect the stages so far, probe the collected batch
// against the grace-hash table, and resume over the joined batch. That
// table is dead once probed, so its grant is released there rather than at
// the end of the query.
func (r *pipeRun) addJoin(x *Join) error {
	if ok, err := r.addIndexJoin(x); ok || err != nil {
		return err
	}
	env := r.env
	bsp := env.Trace.StartChild("join-build " + x.Describe())
	benv := *env
	benv.Trace = bsp
	right, err := Execute(x.R, &benv)
	if err != nil {
		return err
	}
	ctx := cmp.Or(env.Ctx, context.Background())
	jp, err := exec.BuildProbeTable(ctx, r.proto, right, x.LKeys, x.RKeys, env.Pool, env.Mem)
	if err != nil {
		return err
	}
	r.closers = append(r.closers, jp.Close)
	buildRows := right.NumRows()
	bsp.AddRows(int64(buildRows))
	bsp.End()
	st := jp.NewStage()
	r.reports = append(r.reports, func() {
		js := jp.Stats()
		probed, matches := st.Rows()
		js.ProbeRows, js.Matches = int(probed), int(matches)
		env.Stats.recordJoin(js)
		build, keyPath, spill := "serial", "encoded", ""
		if js.ParallelBuild {
			build = "parallel"
		}
		if js.IntKeys {
			keyPath = "packed-int"
		}
		if js.SpilledPartitions > 0 {
			spill = fmt.Sprintf("; spilled %d partitions, %d rows, %d bytes", js.SpilledPartitions, js.SpilledRows, js.SpilledBytes)
		}
		env.obs().Event("join", fmt.Sprintf("%s: %d x %d -> %d rows (build: %d rows, %d partitions, %s, %s keys; probed %d rows%s)",
			x.Describe(), js.ProbeRows, buildRows, js.Matches,
			js.BuildRows, js.Partitions, build, keyPath, js.ProbeRows, spill))
	})
	if !jp.Spilled() {
		r.addStage(st)
		r.proto, err = jp.Proto(r.proto)
		return err
	}
	collected, err := r.collect()
	if err != nil {
		return err
	}
	sp := r.span(st)
	t0 := time.Now()
	joined, err := st.ProbeBatch(ctx, collected)
	sp.Add(time.Since(t0))
	jp.Close()
	if err != nil {
		return err
	}
	r.resume(joined)
	return nil
}

// addIndexJoin appends x's probe stage as an index probe, and reports
// whether it did. That takes a build side that is a Scan on one key the
// snapshot marks sorted — the loaders store mseed.records in file_id order
// and mseed.files by file_id — and an integer-family key on both sides.
// Then the build side is never executed and nothing is built: the stage
// searches out each probe key's rows of the scanned table and applies the
// scan's predicates to just those, and the rows it never looks at count as
// skipped scan rows. NoSkipping, which turns off every statistics-driven
// shortcut, leaves every join hashed.
func (r *pipeRun) addIndexJoin(x *Join) (bool, error) {
	env := r.env
	s, ok := x.R.(*Scan)
	if !ok || len(x.RKeys) != 1 || env.NoSkipping {
		return false, nil
	}
	col, ok := strings.CutPrefix(x.RKeys[0], s.Prefix)
	if !ok || !env.Store.Sorted(s.Table, col) {
		return false, nil
	}
	if lk, ok := r.proto.Col(x.LKeys[0]); !ok || !lk.Type().IntFamily() {
		return false, nil
	}
	right, err := scanBase(s, env)
	if err != nil {
		return true, err
	}
	st, err := exec.NewIndexProbeStage(r.proto, right, x.LKeys[0], x.RKeys[0], s.Preds, s.Cols)
	if err != nil {
		// A predicate that fails over the table: the reference's scan error.
		return true, fmt.Errorf("plan: scan %s: %w", s.Table, err)
	}
	r.addStage(st)
	rows := int64(env.Store.Rows(s.Table))
	r.reports = append(r.reports, func() {
		probed, matched := st.Rows()
		examined := st.Examined()
		env.Stats.recordScanSkip(max(rows-examined, 0))
		env.obs().Event("join", fmt.Sprintf("%s: index on %s: %d probe rows, %d rows examined -> %d rows",
			x.on(), x.RKeys[0], probed, examined, matched))
	})
	r.proto, err = st.Proto(r.proto)
	return true, err
}

// executePipelined runs a decomposed spine as one push pipeline.
func executePipelined(pp *pipePlan, env *Env) (*column.Batch, error) {
	o := env.obs()
	r := &pipeRun{env: env}
	defer r.close()
	var zones exec.ZonePartial

	switch leaf := pp.leaf.(type) {
	case *Scan:
		sp := env.Trace.StartChild("scan " + leaf.Table)
		b, err := scanBase(leaf, env)
		if err != nil {
			return nil, err
		}
		scanRows := b.NumRows()
		sp.AddRows(int64(scanRows))
		sp.End()
		r.resume(b)
		if len(leaf.Preds) == 0 {
			o.Event("scan", fmt.Sprintf("%s: %d rows", leaf.Table, scanRows))
			break
		}
		r.addFilter(leaf.Preds, func(_, kept int64) {
			o.Event("scan", fmt.Sprintf("%s: %d of %d rows pass %s", leaf.Table, kept, scanRows, exprList(leaf.Preds)))
		})

	case *LazyExtract:
		// Step 1 of a lazy extraction (§3.1): the metadata plan yields the
		// qualifying records, its spans grouped under "metadata". Step 2 is
		// the source's: the run-time rewrite injects cache-read / extract
		// operators for exactly those records, minus the ones the zone maps
		// prove irrelevant.
		msp := env.Trace.StartChild("metadata")
		menv := *env
		menv.Trace = msp
		mp, ok := decompose(leaf.Meta)
		if !ok {
			return nil, fmt.Errorf("plan: %s does not decompose into a pipeline", leaf.Meta.Describe())
		}
		mp.keep = leaf.MetaCols()
		meta, err := executePipelined(mp, &menv)
		if err != nil {
			return nil, err
		}
		msp.AddRows(int64(meta.NumRows()))
		msp.End()
		o.Event("rewrite", fmt.Sprintf("metadata plan yields %d qualifying records; invoking run-time plan rewriting operator", meta.NumRows()))
		if env.Source == nil {
			return nil, fmt.Errorf("plan: LazyExtract requires an ExtractSource in the environment")
		}
		prune, answer := leaf.Prune, leaf.ZoneAnswer
		if env.NoSkipping {
			prune, answer = nil, nil
		}
		if r.src, err = env.Source.ExtractStream(cmp.Or(env.Ctx, context.Background()), meta, leaf.Cols, prune, leaf.Window, answer, o, env.Pool.MorselRows(), env.Pool.Workers(), env.Mem.Ledger()); err != nil {
			return nil, err
		}
		if za, ok := r.src.(ZoneAnswerer); ok && answer != nil {
			zones = za.ZonePartial()
		}
		if r.proto, err = ExtractProto(meta, leaf.Cols); err != nil {
			return nil, err
		}
		if rc, ok := r.src.(RowsServedCounter); ok {
			width := r.proto.NumCols()
			r.reports = append(r.reports, func() {
				// Rows, how many of the universal table's columns each
				// carries, how many of those arrived as constant runs, and how
				// many samples of the records read fell outside the window.
				rows, trimmed, runCols := rc.RowsServed()
				detail := fmt.Sprintf("lazy extraction produced %d universal-table rows × %d of %d columns (%d as runs)",
					rows, width, len(catalog.DataviewColumns()), runCols)
				if leaf.Window != nil {
					detail += fmt.Sprintf("; sample window %s trimmed %d samples at record edges", leaf.Window, trimmed)
				}
				o.Event("extract", detail)
			})
		}
	}

	if s, ok := pp.leaf.(*Scan); ok && s.Cols != nil {
		r.project(s.Cols) // the predicate-only columns have served
	}

	for _, op := range pp.ops {
		switch x := op.(type) {
		case *Filter:
			r.addFilter(x.Preds, func(in, kept int64) {
				o.Event("filter", fmt.Sprintf("%s: %d -> %d rows", exprList(x.Preds), in, kept))
			})
		case *Join:
			if err := r.addJoin(x); err != nil {
				return nil, err
			}
		}
	}

	// The spine's own breaker: the aggregate sink folds the pending segment,
	// else the collector takes it.
	var out *column.Batch
	var err error
	if pp.agg != nil {
		sink, err := exec.NewAggSink(r.proto, pp.agg.GroupBy, pp.agg.Aggs, env.Mem)
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, sink.Close)
		sink.FoldPartial(zones)
		if out, err = r.drain(sink, "stage aggregate"); err != nil {
			return nil, err
		}
		r.reports = append(r.reports, func() {
			// runs is non-zero when the sink walked its group keys once per
			// constant run instead of once per row.
			if runs := sink.RunsIn(); runs > 0 {
				o.Event("aggregate", fmt.Sprintf("%d rows in %d runs -> %d groups", sink.RowsIn(), runs, out.NumRows()))
			} else {
				o.Event("aggregate", fmt.Sprintf("%d rows -> %d groups", sink.RowsIn(), out.NumRows()))
			}
		})
	} else {
		if pp.keep != nil {
			r.project(pp.keep)
		}
		if out, err = r.collect(); err != nil {
			return nil, err
		}
	}

	env.Stats.recordPipeline(r.morsels)
	for _, report := range r.reports {
		report()
	}
	o.Event("pipeline", fmt.Sprintf("%d stage(s) fused over %d morsels", r.fused, r.morsels))

	// Post-pipeline breakers, innermost first. A query whose ctx ended
	// stops before the next one and after the last; a breaker that has
	// started (a sort) runs to its end.
	ctx := cmp.Or(env.Ctx, context.Background())
	for i := len(pp.post) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out, err = applyPost(pp.post[i], out, env); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

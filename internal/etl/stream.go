package etl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/plan"
)

// errStreamClosed reports a Next call racing a Close. It never reaches a
// query result: the pipeline driver only closes the source after it has
// stopped consuming, so a late Next is already being discarded.
var errStreamClosed = errors.New("etl: extraction stream closed")

// ExtractStream implements plan.ExtractSource: the universal table of meta
// delivered as a morsel stream. meta holds the metadata rows that survived
// the metadata predicates (one per qualifying mSEED record, with F.* and
// R.* columns).
//
// This is the run-time half of lazy extraction (§3.1): for each qualifying
// record not pruned or answered by its zone, the injected operator is a
// cache read or a file extraction, reported to the observer. Misses are read in
// coalesced runs (see the package documentation) so a cold-cache query
// costs O(1) syscalls and allocations per run, not per record.
//
// prune, when non-nil, is consulted against the zone maps collected by
// earlier extractions: records whose zone entry proves no sample can pass
// are skipped before any ReadAt or decode (they still yield a metadata row
// with zero samples, which the enclosing data filter would have deleted
// anyway). Records without a fresh zone entry always extract.
//
// answer (plan.ZoneAnswer) lets a record whose zone prune and window admit
// wholly yield no samples: ZonePartial folds it (zoneAnswer). A file that
// moved between stat and open is prepared again (maxReprepares), so all
// the stream reads describes one state of it, and all it counts and reports
// comes from that last prepare.
//
// Extraction overlaps compute: background workers read and Steim-decode run
// N+1 while the consumer assembles run N's rows into morsels, claiming runs
// in plan order under a bounded window — at most workers+1 runs in flight,
// each admitted only if its estimated footprint fits the memory ledger.
// When the budget denies admission the consumer extracts the run it needs
// inline: overlap degrades to the synchronous schedule instead of
// overshooting the budget. width is the consuming pool's worker count, and
// the stream runs that many prefetch workers (prefetchWorkers): the consumer
// is blocked in waitRow whenever it is behind them, so it occupies no core
// of its own.
//
// window, when non-nil, is the statement's D.sample_time range: the morsels
// carry only the samples inside it. Records are still read, decoded and
// admitted to the recycler whole — the record stays the unit of lazy
// loading — and only the layout is cut: a record inside the window is laid
// out whole, one outside it not at all, and the records at its edges from
// the first or up to the last sample inside it (appendSegments). The rows
// are exactly those the window's predicates would keep, in the same order.
//
// Each sample is written once: a run decodes into one value buffer, its
// records become recycler entries viewing that buffer, and a morsel whose
// records are consecutive stretches of it carries D.sample_value as a view,
// not a copy (segValues) — cut by the window or not. Morsel columns are
// read-only, as from any source. D.sample_time is generated into the morsel
// for the delivered samples only, and only when cols lists it.
//
// cols (plan.LazyExtract.Cols) lists the universal-table columns the query
// reads; the morsels carry exactly those, nil meaning all of them. The
// metadata batch drives the extraction itself — which files, offsets and
// lengths to read — and under a narrowed plan carries only that and the
// listed F.*/R.* columns (plan.LazyExtract.MetaCols), so a query that reads
// two columns is charged neither for gathering nor for replicating twenty-two
// more.
//
// The stream's content does not depend on how it is cut or scheduled:
// morsels are laid out in metadata-row order by one helper (layout) from
// entries each owned by one run, so the concatenation of the morsels is the
// same rows, bit for bit, at every morselRows, width, column list and
// budget. Failures are as deterministic: in-flight runs drain, remaining
// runs execute in plan order, and the earliest failing run in plan order is
// the one reported (settleLocked).
//
// ctx ends the stream: once it is done no run is claimed, a Next waiting for
// a run in flight returns ctx.Err(), and runs in flight finish unconsumed.
func (e *Engine) ExtractStream(ctx context.Context, meta *column.Batch, cols []string, prune *plan.PruneRange, window *plan.SampleWindow, answer plan.ZoneAnswer, obs plan.Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error) {
	proto, err := plan.ExtractProto(meta, cols)
	if err != nil {
		return nil, err
	}
	var (
		sink   *extractSink
		runs   []runPlan
		opened []*fileState
	)
	for attempt := 0; ; attempt++ {
		if sink, runs, err = e.prepare(meta, prune, window, answer, obs); err != nil {
			return nil, err
		}
		openRunsHook(sink)
		if opened, err = e.openRuns(runs); err == nil {
			break
		}
		closeFiles(opened)
		if !errors.Is(err, errFileChanged) || attempt == maxReprepares {
			return nil, err
		}
	}
	sink.publish()
	e.xstats.filesTouched.Add(int64(len(opened)))
	for _, fs := range opened {
		if sink.quiet {
			break
		}
		obs.Event("open", fs.uri)
	}
	// A pure container span: its children (read/decode/assemble/stall) are
	// Add-accumulated across workers; the container itself has no single
	// wall interval, so SpanNode.Duration sums the children.
	ext := obs.TraceSpan().Child("extract-stream")
	sink.readSpan = ext.Child("read")
	sink.decodeSpan = ext.Child("decode")
	if morselRows <= 0 {
		morselRows = exec.DefaultMorselRows
	}
	s := &extractStream{
		e:          e,
		ctx:        ctx,
		meta:       meta,
		proto:      proto,
		win:        window,
		obs:        obs,
		sink:       sink,
		runs:       runs,
		opened:     opened,
		morselRows: morselRows,
		n:          meta.NumRows(),
		grant:      led.NewGrant(),
		extSpan:    ext,
		stallSpan:  ext.Child("prefetch-stall"),
		gatherSpan: ext.Child("assemble"),
	}
	s.cond = sync.NewCond(&s.mu)
	s.stopCtx = context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.stopping = true
		s.cond.Broadcast() // wake a stalled consumer and waiting workers
		s.mu.Unlock()
	})

	s.runLeft = make([]int, len(s.runs))
	s.est = make([]int64, len(s.runs))
	s.claimed = make([]bool, len(s.runs))
	s.done = make([]bool, len(s.runs))
	s.errs = make([]error, len(s.runs))
	for r := range s.runs {
		run := &s.runs[r]
		s.runLeft[r] = len(run.rows)
		// Estimated footprint: the read buffer plus the decoded values (8
		// bytes a sample) the run parks until the consumer drains them.
		// Unknown-length records fall back to a compression-ratio guess on
		// the byte range.
		est := run.end - run.start
		unknown := false
		for _, i := range run.rows {
			if l := s.sink.lens[i]; l >= 0 {
				est += int64(l) * 8
			} else {
				unknown = true
			}
		}
		if unknown {
			est += (run.end - run.start) * 2
		}
		s.est[r] = est
	}

	workers := prefetchWorkers(width, len(s.runs))
	s.depth = workers + 1
	for w := 0; w < workers; w++ {
		s.workerWG.Add(1)
		go s.prefetchWorker()
	}
	return s, nil
}

// maxReprepares bounds ExtractStream's prepares after the first.
const maxReprepares = 3

// openRunsHook runs between prepare and openRuns; tests rewrite files there.
var openRunsHook = func(*extractSink) {}

// ZonePartial implements plan.ZoneAnswerer.
func (s *extractStream) ZonePartial() exec.ZonePartial { return s.sink.zones }

// prefetchWorkers is how many workers extract the runs of one stream ahead of
// its consumer: one per worker of the consuming pool — reading, first-touch
// page faults and decode of independent runs all parallelise — at least one,
// and no more than there are runs.
func prefetchWorkers(width, runs int) int {
	return min(max(1, width), runs)
}

// extractStream is one in-flight streaming extraction. The consumer
// (pipeline feeder goroutine) calls Next; prefetch workers race ahead of
// it; Close may arrive from the pipeline driver while Next is blocked and
// must wake it.
type extractStream struct {
	e          *Engine
	ctx        context.Context
	stopCtx    func() bool // releases the AfterFunc that stops the stream on ctx
	meta       *column.Batch
	proto      *column.Batch      // zero-row schema of the morsels
	win        *plan.SampleWindow // nil: every sample
	obs        plan.Observer
	sink       *extractSink
	morselRows int
	n          int

	runs   []runPlan
	opened []*fileState
	est    []int64 // per-run ledger charge while in flight

	grant *mem.Grant

	mu        sync.Mutex
	cond      *sync.Cond
	claimed   []bool
	done      []bool
	errs      []error
	runLeft   []int // unconsumed rows per run; grant released at zero
	scan      int   // low-water mark for the next-unclaimed search
	inflight  int
	depth     int
	errCount  int
	stopping  bool
	closed    bool
	consuming bool // feeder is inside Next; Close waits for it

	workerWG sync.WaitGroup

	segs    []segment // Next's scratch, reused morsel to morsel
	pos     int       // next meta row to emit
	failed  error     // sticky settled error
	served  int64
	trimmed int64 // samples of delivered records outside the window
	runCols int   // columns of the last morsel laid out in constant-run form

	// Trace spans (nil when the query doesn't trace; all no-ops then).
	extSpan    *obs.Span
	stallSpan  *obs.Span
	gatherSpan *obs.Span
}

// prefetchWorker claims runs in plan order and extracts them ahead of the
// consumer, bounded by the in-flight window and the ledger.
func (s *extractStream) prefetchWorker() {
	defer s.workerWG.Done()
	sc := s.e.getScratch()
	defer s.e.putScratch(sc)
	s.mu.Lock()
	for {
		if s.stopping || s.errCount > 0 || s.ctx.Err() != nil {
			break
		}
		r := s.nextUnclaimed()
		if r < 0 {
			break // every run claimed; workers are done
		}
		if s.inflight >= s.depth || !s.grant.Try(s.est[r]) {
			s.cond.Wait() // window full or budget denied; retry on release
			continue
		}
		if s.extract(r, sc) == nil {
			s.e.xstats.prefetchedRuns.Add(1)
		}
	}
	s.mu.Unlock()
}

// extract claims run r, whose footprint the caller has charged to the
// grant, extracts it with mu released, and records how it ended: done, its
// error — a panic in the extraction recovered into an *exec.PanicError —
// and, when it failed, the grant released and the error counted. The caller
// holds mu. sc is the caller's scratch: a prefetch worker's own, or nil for
// one from the pool for this run.
func (s *extractStream) extract(r int, sc *extractScratch) (err error) {
	s.claimed[r] = true
	s.inflight++
	s.mu.Unlock()
	if sc == nil {
		sc = s.e.getScratch()
		defer s.e.putScratch(sc)
	}
	func() {
		defer exec.RecoverTo(&err)
		extractRunHook(r)
		err = s.e.extractRun(&s.runs[r], sc, s.sink, s.obs)
	}()
	s.mu.Lock()
	s.done[r] = true
	s.errs[r] = err
	s.inflight--
	if err != nil {
		s.errCount++
		s.grant.Release(s.est[r])
	}
	s.cond.Broadcast()
	return err
}

// extractRunHook runs first in the extraction of run r; tests make it panic.
var extractRunHook = func(r int) {}

// nextUnclaimed returns the lowest-index unclaimed run, or -1 when all runs
// are claimed. Caller holds mu.
func (s *extractStream) nextUnclaimed() int {
	for s.scan < len(s.runs) && s.claimed[s.scan] {
		s.scan++
	}
	if s.scan >= len(s.runs) {
		return -1
	}
	return s.scan
}

// Next assembles the next morsel: metadata rows in plan order until at
// least morselRows samples are gathered, or — past an eighth of that — until
// the buffer the morsel views ends. Implements exec.BatchSource.
func (s *extractStream) Next() (exec.Morsel, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return exec.Morsel{}, false, errStreamClosed
	}
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return exec.Morsel{}, false, err
	}
	s.consuming = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.consuming = false
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	if s.pos >= s.n {
		return exec.Morsel{}, false, nil
	}
	var (
		segs    = s.segs[:0]
		samples int
		trimmed int64
		view    = true // the segments so far are one stretch of one buffer
	)
rows:
	for s.pos < s.n && samples < s.morselRows {
		i := s.pos
		if err := s.waitRow(i); err != nil {
			return exec.Morsel{}, false, err
		}
		ent := s.sink.entries[i]
		if ent == nil {
			return exec.Morsel{}, false, fmt.Errorf("etl: internal: run completed without delivering row %d", i)
		}
		grown := appendSegments(segs, int32(i), ent, s.win)
		kept := 0
		for x := len(segs); x < len(grown); x++ {
			if x > 0 && !grown[x-1].followedBy(&grown[x]) {
				// A morsel that views one buffer ends where the buffer
				// does — the next run's records start the next morsel,
				// another view, instead of both being copied into one —
				// once it has the rows to be worth a morsel of its own.
				if x == len(segs) && view && samples >= s.morselRows/8 {
					break rows
				}
				view = false
			}
			kept += grown[x].b - grown[x].a
		}
		segs = grown
		samples += kept
		trimmed += int64(len(ent.Values) - kept)
		s.sink.entries[i] = nil // drop our reference; the cache keeps its own
		s.pos++
		if r := s.sink.rowRun[i]; r >= 0 {
			s.mu.Lock()
			s.runLeft[r]--
			if s.runLeft[r] == 0 {
				s.grant.Release(s.est[r])
				s.cond.Broadcast() // freed budget; wake blocked workers
			}
			s.mu.Unlock()
		}
	}

	var gatherStart time.Time
	if s.gatherSpan != nil {
		gatherStart = time.Now()
	}
	b, err := layout(s.meta, s.proto, segs)
	clear(segs) // the morsel keeps nothing of them; do not pin its entries
	s.segs = segs[:0]
	if err != nil {
		return exec.Morsel{}, false, err
	}
	if s.gatherSpan != nil {
		s.gatherSpan.Add(time.Since(gatherStart))
	}
	s.extSpan.AddRows(int64(samples))
	runCols := 0
	for c := 0; c < b.NumCols(); c++ {
		if _, _, ok := b.ColAt(c).Runs(); ok {
			runCols++
		}
	}
	s.mu.Lock()
	s.served += int64(samples)
	s.trimmed += trimmed
	s.runCols = runCols
	s.mu.Unlock()
	s.e.xstats.samplesServed.Add(int64(samples))
	return exec.Morsel{B: b}, true, nil
}

// waitRow makes meta row i's entry available: a no-op for cache hits and
// prefetched runs, an inline extraction when the row's run is unclaimed
// (the progress guarantee under a denying budget — inline claims use Must,
// not Try), and a stall wait when a worker has the run in flight. Once ctx
// is done it returns ctx.Err() instead of either, and never settles.
func (s *extractStream) waitRow(i int) error {
	r := s.sink.rowRun[i]
	if r < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return errStreamClosed
		}
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if s.errCount > 0 {
			return s.settleLocked()
		}
		if s.done[r] {
			if s.errs[r] != nil {
				return s.settleLocked()
			}
			return nil
		}
		if !s.claimed[r] {
			s.grant.Must(s.est[r])
			if s.extract(r, nil) != nil {
				return s.settleLocked()
			}
			return nil
		}
		t0 := time.Now()
		s.cond.Wait()
		d := time.Since(t0)
		s.e.xstats.prefetchStallNanos.Add(d.Nanoseconds())
		s.stallSpan.Add(d)
	}
}

// settleLocked normalizes any failure to one deterministic error: stop new
// prefetch claims, drain in-flight runs, execute every not-yet-run run
// inline in plan order, and report the error of the earliest failing run —
// whichever run failed first in wall-clock time, a serial extraction in
// plan order would have stopped at that one. Caller holds mu; the settled
// error is sticky.
func (s *extractStream) settleLocked() error {
	if s.failed != nil {
		return s.failed
	}
	s.stopping = true
	s.cond.Broadcast()
	for s.inflight > 0 {
		s.cond.Wait()
	}
	for r := 0; r < len(s.runs) && s.failed == nil; r++ {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if s.done[r] {
			if s.errs[r] != nil {
				s.failed = s.errs[r]
			}
			continue
		}
		s.grant.Must(s.est[r])
		if s.failed = s.extract(r, nil); s.failed == nil {
			s.grant.Release(s.est[r]) // nothing will consume its rows
		}
	}
	if s.failed == nil {
		// Unreachable: errCount > 0 implies some errs entry is non-nil.
		for r := range s.errs {
			if s.errs[r] != nil {
				s.failed = s.errs[r]
				break
			}
		}
	}
	return s.failed
}

// RowsServed implements plan.RowsServedCounter.
func (s *extractStream) RowsServed() (int64, int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.trimmed, s.runCols
}

// Close stops prefetching, releases the stream's files and budget, and
// files the extraction's scan report, now that the samples the window
// trimmed are all counted. Idempotent, and safe to call while the feeder is
// blocked in Next: it wakes the feeder, waits for it to leave, then tears
// down.
func (s *extractStream) Close() {
	s.stopCtx()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.stopping = true
	s.cond.Broadcast()
	for s.consuming {
		s.cond.Wait()
	}
	trimmed := s.trimmed
	s.mu.Unlock()
	s.workerWG.Wait()
	s.grant.Close()
	closeFiles(s.opened)
	if r := s.sink.report; r != nil {
		r.SamplesTrimmed = trimmed
		s.obs.ScanReport(*r)
	}
}

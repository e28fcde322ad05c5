package etl

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mseed"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/recycler"
)

// ExtractStats counts work done by lazy extractions since engine creation.
type ExtractStats struct {
	Extractions   int64 // records decoded from files
	CacheReads    int64 // records served from the recycler
	FilesTouched  int64 // distinct file opens across all extractions
	BytesRead     int64 // bytes read from files (coalesced runs read gaps too)
	SamplesServed int64 // samples delivered to queries
	RunsRead      int64 // coalesced reads issued (one ReadAt each)
	RunRecords    int64 // records decoded out of coalesced runs
	DecodeNanos   int64 // time spent parsing and decoding run bytes

	// Zone-map pruning counters: qualifying records whose collected zone
	// entry failed the query's pushed-down value predicate and were dropped
	// before any read or decode, and the coalesced runs that never had to
	// be issued because of it.
	RunsSkipped     int64
	RecordsSkipped  int64
	RecordsAnswered int64 // taken from their zones by an aggregate (plan.ZoneAnswer)

	// Streaming extraction (ExtractStream) counters: runs read+decoded by
	// background prefetch workers ahead of the consumer, and time the
	// consumer spent stalled waiting on an in-flight prefetch.
	PrefetchedRuns     int64
	PrefetchStallNanos int64
}

// Run coalescing parameters.
const (
	// coalesceGap is the widest hole (bytes of records the query does not
	// need) a run is allowed to read through: reading a small gap
	// sequentially is cheaper than splitting the run and paying another
	// syscall.
	coalesceGap = 64 << 10
	// maxRunBytes bounds one coalesced read, and with it the per-worker
	// scratch buffer (whole-file prefetch runs are exempt).
	maxRunBytes = 4 << 20
	// fallbackRecordLen sizes a run's final record when the metadata batch
	// carries no F.record_length column; the run read self-extends if the
	// header parsed from the run says the record is longer.
	fallbackRecordLen = 512
)

// fileState is everything extraction needs to know about one source file.
// The stat happens once per extraction (staleness check); the file is
// opened only if it has cache misses.
type fileState struct {
	uri   string
	path  string
	f     *os.File
	mtime time.Time
	size  int64
}

// runPlan is one coalesced read: a contiguous byte range of one file
// covering a batch of missed records. Runs never share metadata-row
// indices, which is what makes in-file parallel extraction deterministic.
type runPlan struct {
	fs       *fileState
	rows     []int // meta row indices, ascending by file offset
	start    int64 // first byte of the run
	end      int64 // estimated end (exclusive); extended on demand
	prefetch bool  // whole-file prefetch run (PrefetchWholeFile)
	// samples is the length of the run's value buffer: the planned sample
	// counts of its rows (sink.lens) summed. A prefetch run decodes the
	// whole file, so it sizes its buffer from the scan instead.
	samples int
}

// extractSink collects the records of one extraction. Workers deliver
// decoded records through it; rows are disjoint across runs so no locking is
// needed beyond the cache's own.
type extractSink struct {
	e    *Engine
	seqs []int64
	offs []int64

	// lens[i] is the expected sample count of row i (actual count for cache
	// hits, R.num_samples for misses); -1 when unknown. It sizes a run's
	// value buffer and ledger charge, never the output.
	lens []int
	// rowRun[i] is the run that extracts row i, -1 for a row pass 1 closed
	// out (cache hit or pruned). at[i] is where row i's values go in that
	// run's buffer, -1 when the row has no planned place (unknown count,
	// prefetch run) and decodes into a buffer of its own. Places are handed
	// out in metadata-row order, the order morsels are laid out in, so the
	// rows of a morsel are consecutive stretches of the buffer.
	rowRun []int
	at     []int
	// entries[i] holds row i's samples once delivered: a cache hit, a
	// decoded record, or prunedEntry.
	entries []*recycler.Entry

	// readSpan and decodeSpan accumulate file-read and decode time from all
	// extraction workers when the query traces; nil (the common case) costs
	// nothing.
	readSpan   *obs.Span
	decodeSpan *obs.Span

	// report is the extraction's \explain tally, filed when the stream
	// closes (the samples its window trims are counted as it goes); nil
	// when the extraction has no prune range, sample window or zone answer.
	report *plan.ScanReport
	// publish applies pass 1's side effects — counters, its ExtractRun
	// (file stamps included) and zone events — once the files it planned
	// for are open: a prepare repeated because a file changed leaves none.
	publish func(opened []*fileState)
	// zones is the partial aggregate of the records answered from zones.
	zones exec.ZonePartial
}

// prunedEntry marks rows dropped by zone-map pruning: a shared empty entry,
// so the stream sees a delivered row that contributes zero samples.
var prunedEntry = &recycler.Entry{}

// runOut gathers what the records of one run hand over, so that the zone
// maps, the recycler and the observer are each visited once per run (flush)
// and not once per record. Every slice is sized for the run up front: ents
// is a slab the sink's entry pointers point into and never reallocates.
type runOut struct {
	e      *Engine
	fs     *fileState
	buf    *recycler.Buffer // the run's value buffer
	seqnos []int
	zones  []catalog.ZoneEntry
	ents   []recycler.Entry
	// rec is the run's report; decodeAt appends each record's sample count
	// and encoding, and flush adds seqnos.
	rec plan.ExtractRun
}

func newRunOut(e *Engine, fs *fileState, records int) *runOut {
	return &runOut{
		e:      e,
		fs:     fs,
		seqnos: make([]int, 0, records),
		zones:  make([]catalog.ZoneEntry, 0, records),
		ents:   make([]recycler.Entry, 0, records),
	}
}

// add turns one decoded record into its entry, to be cached and zone-mapped
// under seqno — the one write each sample gets: the fused pass (convert)
// calibrates straight into the run's buffer at the record's planned place,
// collecting the zone entry on the way. A record without a planned place
// (at < 0), or whose header disagrees with the planned count (a file whose
// sample counts went stale after the metadata load), gets a buffer of its
// own, so the entry always carries the record's actual length.
func (o *runOut) add(seqno, at, planned int, h *mseed.Header, samples []int32) *recycler.Entry {
	o.ents = append(o.ents, recycler.Entry{Start: h.StartNanos(), Rate: h.SampleRate(), FileMtime: o.fs.mtime, FileSize: o.fs.size})
	ent := &o.ents[len(o.ents)-1]
	if n := len(samples); at >= 0 && planned == n {
		ent.Buf, ent.Off = o.buf, at
		ent.Values = o.buf.Values[at : at+n : at+n]
	} else {
		ent.Values = make([]float64, n)
	}
	z := o.e.convert(ent.Values, samples)
	z.Start, z.Rate = ent.Start, ent.Rate
	o.zones = append(o.zones, z)
	o.seqnos = append(o.seqnos, seqno)
	return ent
}

// install puts the run's zone entries under (uri, mtime, size, seqno) — the
// staleness key the recycler uses too, so a touched file invalidates its
// zones — and offers its entries to the recycler: one lock round-trip each.
func (o *runOut) install() {
	if len(o.ents) == 0 {
		return
	}
	e, fs := o.e, o.fs
	e.store.Zones().PutRun(fs.uri, fs.mtime, fs.size, o.seqnos, o.zones)
	e.cache.AdmitRun(fs.uri, o.seqnos, o.ents)
	e.xstats.extractions.Add(int64(len(o.ents)))
	e.xstats.runRecords.Add(int64(len(o.ents)))
}

// flush installs the run and hands its report to the observer.
func (o *runOut) flush(obs plan.Observer) {
	o.install()
	o.rec.Seqs = o.seqnos
	obs.ExtractRun(o.rec)
}

// Extract returns the universal table of meta in one batch at full width:
// every meta column replicated per sample plus D.sample_time and
// D.sample_value, all flat. It drains one ExtractStream (plan.ExtractAll),
// as the tests' operator-at-a-time reference does; benchmarks warm the
// recycler with it. Queries consume the stream morsel by morsel, carrying
// only the columns they read.
func (e *Engine) Extract(meta *column.Batch, prune *plan.PruneRange, obs plan.Observer) (*column.Batch, error) {
	return plan.ExtractAll(e, meta, nil, prune, obs, 1)
}

// zoneAnswer folds the zones of answered records into a partial. COUNT,
// MIN and MAX do not depend on order (a positive gain makes no −0; no NaN is
// answered); SUM does unless every partial sum is exact, as under a
// power-of-two, gain-only transform while bound stays under 2⁵³: in raw
// units, answered magnitudes × counts plus 2³¹ × the others' counts (+Inf
// for a count no zone knows) — its own float sum exact below that too.
type zoneAnswer struct {
	part        exec.ZonePartial
	raw         int64 // exact raw sum of the answered records
	gain, bound float64
	sum         bool // the aggregate needs SUM
}

// newZoneAnswer returns nil when nothing is asked or the transform forbids.
func (e *Engine) newZoneAnswer(answer plan.ZoneAnswer) *zoneAnswer {
	gain, sum := e.opts.Gain, slices.Contains(answer, "SUM")
	frac, _ := math.Frexp(gain)
	if answer == nil || !(gain > 0) || sum && !(gainOnly(gain, e.opts.ClipAbs) && frac == 0.5 && !math.IsInf(gain*0x1p53, 1)) {
		return nil
	}
	return &zoneAnswer{part: exec.ZonePartial{Min: math.Inf(1), Max: math.Inf(-1)}, gain: gain, sum: sum}
}

// take folds in, and reports, a record whose fresh (ok) zone z has no NaN
// or null and whose every sample prune (all) and win admit — windowRange's
// (0, n), as the stream would cut it; it counts any other into bound.
func (a *zoneAnswer) take(z catalog.ZoneEntry, ok, all bool, win *plan.SampleWindow) bool {
	if a == nil {
		return false
	}
	if !ok {
		a.bound = math.Inf(1)
		return false
	}
	n := int(z.Samples)
	lo, hi, inside := 0, n, true
	if win != nil {
		lo, hi, inside = windowRange(z.Start, z.Rate, n, win.Lo, win.Hi)
	}
	if !all || n == 0 || !inside || lo != 0 || hi != n || z.NaNs+z.Nulls > 0 {
		a.bound += 0x1p31 * float64(n)
		return false
	}
	a.part.Count += z.Samples
	a.part.Min, a.part.Max = min(a.part.Min, z.Min), max(a.part.Max, z.Max)
	a.raw += z.Sum
	a.bound += max(math.Abs(z.Min), math.Abs(z.Max)) / a.gain * float64(n)
	return true
}

// partial returns the partial, false when SUM would be inexact or none.
func (a *zoneAnswer) partial() (exec.ZonePartial, bool) {
	if a == nil {
		return exec.ZonePartial{}, false
	}
	a.part.Sum = float64(a.raw) * a.gain
	return a.part, !a.sum || a.bound < 0x1p53
}

// prepare is the front half of an extraction. It validates the metadata
// batch, stats the source files, and runs pass 1: rows the zone maps prune,
// and rows they answer (answer), are closed out immediately (zero samples,
// no I/O), rows with a fresh cache entry are served (reported as CacheRead
// injections), and the rest are coalesced into the runs it returns beside
// the sink. No file is opened here, and nothing is counted or reported
// until the caller, its files open, calls sink.publish.
func (e *Engine) prepare(meta *column.Batch, prune *plan.PruneRange, win *plan.SampleWindow, answer plan.ZoneAnswer, obs plan.Observer) (*extractSink, []runPlan, error) {
	uriCol, ok := meta.Col("F.uri")
	if !ok {
		return nil, nil, fmt.Errorf("etl: extraction metadata lacks F.uri (have %v)", meta.Names())
	}
	seqCol, ok := meta.Col("R.seqno")
	if !ok {
		return nil, nil, fmt.Errorf("etl: extraction metadata lacks R.seqno")
	}
	offCol, ok := meta.Col("R.file_offset")
	if !ok {
		return nil, nil, fmt.Errorf("etl: extraction metadata lacks R.file_offset")
	}
	uris := uriCol.Strings()
	seqs := seqCol.Int64s()
	offs := offCol.Int64s()
	n := meta.NumRows()

	// Optional metadata that lets extraction pre-size runs and their ledger
	// charge: absent columns only cost performance, never correctness.
	var nums []int64
	if c, ok := meta.Col("R.num_samples"); ok {
		nums = c.Int64s()
	}
	var recLens []int64
	if c, ok := meta.Col("F.record_length"); ok {
		recLens = c.Int64s()
	}

	// Stat each distinct file once per query for staleness checks. A file
	// is the repository root joined with its uri: the metadata batch, cut
	// from the query's store snapshot, alone decides what is read.
	states := make(map[string]*fileState)
	stateOf := func(uri string) (*fileState, error) {
		if fs, ok := states[uri]; ok {
			return fs, nil
		}
		path := filepath.Join(e.root, filepath.FromSlash(uri))
		info, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("etl: stat %s: %w", uri, err)
		}
		fs := &fileState{uri: uri, path: path, mtime: info.ModTime(), size: info.Size()}
		states[uri] = fs
		return fs, nil
	}

	sink := &extractSink{
		e:       e,
		seqs:    seqs,
		offs:    offs,
		lens:    make([]int, n),
		rowRun:  make([]int, n),
		at:      make([]int, n),
		entries: make([]*recycler.Entry, n),
	}

	// Pass 1: zones prune or answer what they can; the cache serves the rest.
	zones, za := e.store.Zones(), e.newZoneAnswer(answer)
	var missIdx, prunedIdx, answeredIdx []int
	for i := 0; i < n && (prune != nil || za != nil); i++ {
		fs, err := stateOf(uris[i])
		if err != nil {
			return nil, nil, err
		}
		z, ok := zones.Get(uris[i], fs.mtime, fs.size, int(seqs[i]))
		if v := prune.Admit(z); ok && v == plan.AdmitNone {
			sink.entries[i] = prunedEntry
			prunedIdx = append(prunedIdx, i)
		} else if za.take(z, ok, v == plan.AdmitAll, win) {
			answeredIdx = append(answeredIdx, i)
		}
	}
	if part, exact := za.partial(); exact {
		for _, i := range answeredIdx {
			sink.entries[i] = prunedEntry
		}
		sink.zones = part
	} else {
		answeredIdx = nil
	}
	hits := plan.ExtractRun{Kind: plan.CacheRead, Run: -1}
	for i := 0; i < n; i++ {
		if sink.entries[i] != nil {
			continue // pruned or answered
		}
		fs, err := stateOf(uris[i])
		if err != nil {
			return nil, nil, err
		}
		key := recycler.Key{URI: uris[i], SeqNo: int(seqs[i])}
		if ent, hit := e.cache.Lookup(key, fs.mtime, fs.size); hit {
			sink.entries[i] = ent
			sink.lens[i] = len(ent.Values)
			if hits.Seqs == nil { // sized for the rows left, once
				hits.URIs, hits.Seqs, hits.Samples = make([]string, 0, n-i), make([]int, 0, n-i), make([]int, 0, n-i)
			}
			hits.URIs = append(hits.URIs, uris[i])
			hits.Seqs = append(hits.Seqs, int(seqs[i]))
			hits.Samples = append(hits.Samples, len(ent.Values))
			continue
		}
		sink.lens[i] = -1
		if nums != nil && nums[i] >= 0 {
			sink.lens[i] = int(nums[i])
		}
		missIdx = append(missIdx, i)
	}
	runs := e.coalesce(missIdx, uris, offs, recLens, states)
	for i := range sink.rowRun {
		sink.rowRun[i], sink.at[i] = -1, -1
	}
	for r := range runs {
		for _, i := range runs[r].rows {
			sink.rowRun[i] = r
		}
	}
	for _, i := range missIdx { // ascending: metadata-row order
		// The buffer is allocated before the run is read, so a count no
		// record of that length could hold (the densest encoding, Steim-2,
		// packs under two samples a byte) is not believed: the record
		// decodes into a buffer of its own, if it decodes at all.
		run := &runs[sink.rowRun[i]]
		if l := sink.lens[i]; !run.prefetch && l >= 0 && int64(l) <= 2*recordLen(recLens, i) {
			sink.at[i] = run.samples
			run.samples += l
		}
	}
	runsSkipped := 0
	if len(prunedIdx) > 0 {
		// Count the reads pruning saved: coalesce the would-be miss set too
		// (pruned rows would all have been misses: a pruned record was
		// extracted under an older query, whose cache entry may since have
		// been evicted).
		all := make([]int, 0, len(missIdx)+len(prunedIdx))
		all = append(all, missIdx...)
		all = append(all, prunedIdx...)
		sort.Ints(all)
		runsSkipped = len(e.coalesce(all, uris, offs, recLens, states)) - len(runs)
	}
	if prune != nil || win != nil || za != nil {
		sink.report = &plan.ScanReport{
			Target:          "extract",
			Runs:            int64(len(runs)),
			RunsSkipped:     int64(runsSkipped),
			Records:         int64(len(missIdx)),
			RecordsSkipped:  int64(len(prunedIdx)),
			RecordsAnswered: int64(len(answeredIdx)),
			CacheReads:      int64(len(hits.Seqs)),
		}
		if win != nil {
			sink.report.Window = win.String()
		}
	}

	sink.publish = func(opened []*fileState) {
		e.xstats.cacheReads.Add(int64(len(hits.Seqs)))
		e.xstats.filesTouched.Add(int64(len(opened)))
		// Pass 1 stat'ed every distinct file the qualifying records live in
		// (hits, misses and pruned rows alike), so the states map is exactly
		// the set of files whose content this extraction's output depends
		// on. The warehouse result cache stores their stamps and re-stats
		// them on a hit — the same mtime staleness contract the recycler
		// cache and the zone maps use.
		hits.Opened = make([]string, len(opened))
		for x, fs := range opened {
			hits.Opened[x] = fs.uri
		}
		hits.Stamps = make([]plan.FileStamp, 0, len(states))
		for _, fs := range states {
			hits.Stamps = append(hits.Stamps, plan.FileStamp{URI: fs.uri, Path: fs.path, MtimeNanos: fs.mtime.UnixNano(), Size: fs.size})
		}
		slices.SortFunc(hits.Stamps, func(a, b plan.FileStamp) int { return cmp.Compare(a.URI, b.URI) })
		obs.ExtractRun(hits)
		if len(prunedIdx) > 0 {
			e.xstats.runsSkipped.Add(int64(runsSkipped))
			e.xstats.recordsSkipped.Add(int64(len(prunedIdx)))
			obs.Event("zone-prune", fmt.Sprintf("zone maps skip %d of %d qualifying records (%d coalesced runs never read)",
				len(prunedIdx), n, runsSkipped))
		}
		if len(answeredIdx) > 0 {
			e.xstats.recordsAnswered.Add(int64(len(answeredIdx)))
			obs.Event("zone-answer", fmt.Sprintf("zone maps answer %d of %d qualifying records (%d samples never decoded)",
				len(answeredIdx), n, sink.zones.Count))
		}
	}
	return sink, runs, nil
}

func closeFiles(opened []*fileState) {
	for _, fs := range opened {
		if fs.f != nil {
			fs.f.Close()
			fs.f = nil
		}
	}
}

// coalesce groups the rows idx by file (in first-appearance order, which is
// the deterministic error-reporting order), sorts each file's rows by
// offset and coalesces adjacent records into runs. It is arithmetic over
// the sizes pass 1 already stat'ed (states holds every file idx names): no
// file is opened, so the zone-prune tally can ask what a set of rows would
// have cost to read.
func (e *Engine) coalesce(idx []int, uris []string, offs, recLens []int64, states map[string]*fileState) []runPlan {
	// Group by file over one backing array: count, carve, fill.
	slot := make(map[string]int)
	var fileOrder []string
	var counts []int
	for _, i := range idx {
		f, seen := slot[uris[i]]
		if !seen {
			f = len(fileOrder)
			slot[uris[i]] = f
			fileOrder = append(fileOrder, uris[i])
			counts = append(counts, 0)
		}
		counts[f]++
	}
	backing := make([]int, len(idx))
	byFile := make([][]int, len(fileOrder))
	for f, n := range counts {
		byFile[f], backing = backing[:0:n], backing[n:]
	}
	for _, i := range idx {
		f := slot[uris[i]]
		byFile[f] = append(byFile[f], i)
	}

	var runs []runPlan
	for f, uri := range fileOrder {
		fs := states[uri]
		rows := byFile[f]
		byOffset := func(a, b int) bool { return offs[rows[a]] < offs[rows[b]] }
		if !sort.SliceIsSorted(rows, byOffset) {
			sort.Slice(rows, byOffset)
		}

		if e.opts.PrefetchWholeFile {
			runs = append(runs, runPlan{fs: fs, rows: rows, start: 0, end: fs.size, prefetch: true})
			continue
		}
		// A run's rows are a stretch of the file's: lo is where the open
		// run (the last in runs) begins.
		lo := 0
		for x, i := range rows {
			start := offs[i]
			end := start + recordLen(recLens, i)
			if end > fs.size {
				end = fs.size
			}
			if end < start {
				end = start // offset beyond EOF: the read will surface staleness
			}
			if cur := len(runs) - 1; x > 0 && start <= runs[cur].end+coalesceGap && end-runs[cur].start <= maxRunBytes {
				runs[cur].rows = rows[lo : x+1]
				if end > runs[cur].end {
					runs[cur].end = end
				}
				continue
			}
			lo = x
			runs = append(runs, runPlan{fs: fs, rows: rows[lo : x+1], start: start, end: end})
		}
	}
	return runs
}

// recordLen is row i's record length as the metadata has it: F.record_length,
// or fallbackRecordLen when the batch carries no such column.
func recordLen(recLens []int64, i int) int64 {
	if recLens != nil && recLens[i] > 0 {
		return recLens[i]
	}
	return fallbackRecordLen
}

var errFileChanged = errors.New("file changed between stat and open")

// openRuns opens each run's file, once per file and in plan order, and
// returns the files it opened — on error too, for the caller to close. A
// file that is not the (mtime, size) prepare planned for is errFileChanged.
// The caller counts and reports the opens once all of them succeeded
// (sink.publish).
func (e *Engine) openRuns(runs []runPlan) ([]*fileState, error) {
	var opened []*fileState
	for r := range runs {
		fs := runs[r].fs
		if fs.f != nil {
			continue
		}
		f, err := os.Open(fs.path)
		if err != nil {
			return opened, fmt.Errorf("etl: open %s: %w", fs.uri, err)
		}
		fs.f = f
		opened = append(opened, fs)
		info, err := f.Stat()
		if err != nil {
			return opened, fmt.Errorf("etl: stat %s: %w", fs.uri, err)
		}
		if !info.ModTime().Equal(fs.mtime) || info.Size() != fs.size {
			return opened, fmt.Errorf("etl: %s: %w", fs.uri, errFileChanged)
		}
	}
	return opened, nil
}

// extractRun performs one coalesced read, of run r, and decodes its records.
// The run's byte range is an estimate from metadata; if a parsed header says
// a record extends past the buffer, the buffer is extended with one more
// read rather than trusting the stale estimate.
func (e *Engine) extractRun(r int, run *runPlan, sc *extractScratch, sink *extractSink, obs plan.Observer) error {
	fs := run.fs
	buf := sc.bytes(int(run.end - run.start))
	if len(buf) > 0 {
		var readStart time.Time
		if sink.readSpan != nil {
			readStart = time.Now()
		}
		if _, err := fs.f.ReadAt(buf, run.start); err != nil {
			return fmt.Errorf("etl: %s offset %d: %w (metadata may be stale; refresh the warehouse)", fs.uri, run.start, err)
		}
		if sink.readSpan != nil {
			sink.readSpan.Add(time.Since(readStart))
			sink.readSpan.AddBytes(int64(len(buf)))
		}
	}
	e.xstats.bytesRead.Add(int64(len(buf)))
	e.xstats.runsRead.Add(1)
	out := newRunOut(e, fs, len(run.rows))
	out.rec = plan.ExtractRun{Kind: plan.ExtractRecord, Run: r, URI: fs.uri, Offset: run.start, Bytes: int64(len(buf)),
		Samples: make([]int, 0, len(run.rows)), Encodings: make([]string, 0, len(run.rows))}

	// ensure grows the buffer to at least need bytes with one extra read.
	// recOff is the offset of the record being decoded, for diagnostics.
	ensure := func(need, recOff int64) error {
		if need <= int64(len(buf)) {
			return nil
		}
		if run.start+need > fs.size {
			return fmt.Errorf("etl: %s offset %d: record extends past end of file; metadata is stale, refresh the warehouse", fs.uri, recOff)
		}
		have := len(buf)
		if cap(sc.buf) < int(need) {
			nb := make([]byte, need)
			copy(nb, buf)
			sc.buf = nb
		}
		buf = sc.buf[:need]
		if _, err := fs.f.ReadAt(buf[have:], run.start+int64(have)); err != nil {
			return fmt.Errorf("etl: %s offset %d: %w (metadata may be stale; refresh the warehouse)", fs.uri, recOff, err)
		}
		e.xstats.bytesRead.Add(need - int64(have))
		out.rec.Bytes = need
		return nil
	}

	if !run.prefetch {
		out.buf = recycler.NewBuffer(run.samples)
	}
	// Records decoded before a failure are handed over all the same.
	defer out.flush(obs)

	// decodeAt parses and decodes the record of meta row i from the buffer.
	decodeAt := func(i int) error {
		off := sink.offs[i]
		rel := off - run.start
		hdrEnd := rel + 64
		if avail := fs.size - off; avail < 64 {
			// Truncated tail (or offset at/past EOF): parse whatever is
			// there and let the header parser report staleness.
			hdrEnd = rel + avail
			if hdrEnd < rel {
				hdrEnd = rel
			}
		}
		if err := ensure(hdrEnd, off); err != nil {
			return err
		}
		h := &sc.hdr
		if err := mseed.ParseRecordHeaderInto(h, buf[rel:hdrEnd]); err != nil {
			return fmt.Errorf("etl: %s offset %d: record header no longer parses (%v); metadata is stale, refresh the warehouse", fs.uri, off, err)
		}
		recEnd := rel + int64(h.RecordLength)
		if err := ensure(recEnd, off); err != nil {
			return err
		}
		payload := buf[rel+int64(h.DataOffset) : recEnd]
		samples := sc.ints(h.NumSamples)
		if err := mseed.DecodePayloadInto(h, payload, samples); err != nil {
			return fmt.Errorf("etl: %s offset %d: %w", fs.uri, off, err)
		}
		out.rec.Samples = append(out.rec.Samples, len(samples))
		out.rec.Encodings = append(out.rec.Encodings, h.Encoding.String())
		sink.entries[i] = out.add(int(sink.seqs[i]), sink.at[i], sink.lens[i], h, samples)
		return nil
	}

	decodeStart := time.Now()
	defer func() {
		d := time.Since(decodeStart)
		e.xstats.decodeNanos.Add(d.Nanoseconds())
		sink.decodeSpan.Add(d)
	}()

	if run.prefetch {
		return e.prefetchRun(run, buf, sc, sink, decodeAt, out)
	}
	for _, i := range run.rows {
		if err := decodeAt(i); err != nil {
			return err
		}
	}
	return nil
}

// prefetchRun is the PrefetchWholeFile ablation: the run covers the whole
// file, every record is decoded from the buffer into one value buffer and
// admitted to the cache, and the qualifying rows are then served from the
// cache. Rows the cache could not hold (budget too small for the file) fall
// back to direct decodes from the same bytes, into out: the run's report.
func (e *Engine) prefetchRun(run *runPlan, buf []byte, sc *extractScratch, sink *extractSink,
	decodeAt func(int) error, out *runOut) error {
	fs := run.fs
	infos, err := mseed.ScanBuffer(buf)
	if err != nil {
		return fmt.Errorf("etl: prefetch %s: %w; metadata is stale, refresh the warehouse", fs.uri, err)
	}
	out.rec.Kind, out.rec.FileRecords = plan.ExtractFile, len(infos)
	total := 0
	for _, ri := range infos {
		total += ri.Header.NumSamples
	}
	file := newRunOut(e, fs, len(infos))
	file.buf = recycler.NewBuffer(total)
	at := 0
	for _, ri := range infos {
		h := ri.Header
		payload := buf[ri.Offset+int64(h.DataOffset) : ri.Offset+int64(h.RecordLength)]
		samples := sc.ints(h.NumSamples)
		if err = mseed.DecodePayloadInto(h, payload, samples); err != nil {
			err = fmt.Errorf("etl: prefetch %s seq %d: %w", fs.uri, h.SeqNo, err)
			break
		}
		file.add(h.SeqNo, at, len(samples), h, samples)
		at += len(samples)
	}
	file.install()
	if err != nil {
		return err
	}
	for _, i := range run.rows {
		key := recycler.Key{URI: fs.uri, SeqNo: int(sink.seqs[i])}
		if ent, hit := e.cache.Lookup(key, fs.mtime, fs.size); hit {
			sink.entries[i] = ent
			continue
		}
		// Cache budget too small to hold the prefetched file; decode this
		// record directly from the run buffer.
		if err := decodeAt(i); err != nil {
			return err
		}
	}
	return nil
}

// segment is one stretch of a metadata row's share of the universal table:
// the row, the entry holding the samples it is replicated beside, and which
// of them, [a, b) — all, or those inside the stream's sample window.
type segment struct {
	row  int32
	ent  *recycler.Entry
	a, b int
}

// followedBy reports whether next's values directly follow sg's in one
// shared buffer, so that the two read as one slice of it.
func (sg *segment) followedBy(next *segment) bool {
	return next.ent.Buf != nil && next.ent.Buf == sg.ent.Buf && next.ent.Off+next.a == sg.ent.Off+sg.b
}

// appendSegments appends row's segments to segs: its whole entry without a
// window, else the samples whose times (as sampleTimes generates them) lie
// inside [win.Lo, win.Hi]. That is one range, found by windowRange, except
// for a record whose time arithmetic could overflow int64: its samples are
// evaluated one by one and each maximal stretch inside the window becomes a
// segment. A row with no sample to deliver adds none.
func appendSegments(segs []segment, row int32, ent *recycler.Entry, win *plan.SampleWindow) []segment {
	n := len(ent.Values)
	if win == nil {
		if n > 0 {
			segs = append(segs, segment{row: row, ent: ent, b: n})
		}
		return segs
	}
	if a, b, ok := windowRange(ent.Start, ent.Rate, n, win.Lo, win.Hi); ok {
		if a < b {
			segs = append(segs, segment{row: row, ent: ent, a: a, b: b})
		}
		return segs
	}
	a := -1 // start of the open stretch, -1 when none is open
	for i := 0; i <= n; i++ {
		in := false
		if i < n {
			t := sampleTime(ent.Start, ent.Rate, i)
			in = win.Lo <= t && t <= win.Hi
		}
		switch {
		case in && a < 0:
			a = i
		case !in && a >= 0:
			segs = append(segs, segment{row: row, ent: ent, a: a, b: i})
			a = -1
		}
	}
	return segs
}

// windowRange returns the samples [a, b) of a record — start ns, rate Hz, n
// samples — whose times as sampleTimes generates them lie in [lo, hi]. A
// record without a positive rate has every sample at start: all of them or
// none. Otherwise the times are non-decreasing in i (a division and a
// multiplication by positive constants and a truncation are each monotone),
// so a binary search over the same expression finds each edge, and a record
// wholly inside the window costs two comparisons. ok is false where that
// argument fails — a NaN rate, an offset past float64's int64 range, a last
// time past MaxInt64 — and the caller must evaluate sample by sample.
func windowRange(start int64, rate float64, n int, lo, hi int64) (a, b int, ok bool) {
	if n == 0 {
		return 0, 0, true
	}
	if rate <= 0 {
		if lo <= start && start <= hi {
			return 0, n, true
		}
		return 0, 0, true
	}
	last := float64(n-1) / rate * 1e9 // sampleTime(start, rate, n-1) - start, before truncation
	if !(last < 0x1p63) || start > math.MaxInt64-int64(last) {
		return 0, 0, false
	}
	a, b = 0, n
	if start < lo {
		a = sort.Search(n, func(i int) bool { return sampleTime(start, rate, i) >= lo })
	}
	if start+int64(last) > hi {
		b = sort.Search(n, func(i int) bool { return sampleTime(start, rate, i) > hi })
	}
	return a, max(a, b), true
}

// layout lays out the universal table's rows — the one place that does: one
// output row per sample, segments in order, carrying exactly proto's columns
// (plan.ExtractProto). A listed metadata column is handed over as constant
// runs, each segment's row value standing for its samples (Column.Repeat).
// D.sample_value, when listed, is a view of the segments' shared buffer
// where there is one (segValues); D.sample_time, when listed, is generated
// here from each record's start and rate (sampleTimes), for the segment's
// samples only — no query that does not list it pays for it.
func layout(meta, proto *column.Batch, segs []segment) (*column.Batch, error) {
	rows := make([]int32, len(segs))
	counts := make([]int, len(segs))
	total := 0
	for x, sg := range segs {
		rows[x], counts[x] = sg.row, sg.b-sg.a
		total += counts[x]
	}
	cols := make([]*column.Column, proto.NumCols())
	for c := range cols {
		switch name := proto.ColAt(c).Name(); name {
		case "D.sample_time":
			dTimes := make([]int64, total)
			k := 0
			for x, sg := range segs {
				sampleTimes(dTimes[k:k+counts[x]], sg.ent.Start, sg.ent.Rate, sg.a)
				k += counts[x]
			}
			cols[c] = column.NewTimestamps(name, dTimes)
		case "D.sample_value":
			cols[c] = column.NewFloat64s(name, segValues(segs, total))
		default:
			mc, ok := meta.Col(name)
			if !ok {
				return nil, fmt.Errorf("etl: extraction metadata lacks listed column %s", name)
			}
			cols[c] = mc.Repeat(rows, counts)
		}
	}
	return column.NewBatch(cols...)
}

// segValues returns the segments' total values end to end. When the
// segments are consecutive stretches of one shared buffer — the records of
// one run, in the order the run placed them, whether just decoded or cache
// hits admitted together, the first cut at its start and the last at its
// end by a sample window — the result is a capacity-limited view of that
// buffer: nothing is copied, and the column built on it must be treated as
// read-only, like every column a source hands out. Otherwise (hits beside
// misses, two runs in one morsel, a record that decoded into a buffer of its
// own) the values are copied into a fresh vector.
func segValues(segs []segment, total int) []float64 {
	for x := 1; x < len(segs); x++ {
		if !segs[x-1].followedBy(&segs[x]) {
			out := make([]float64, total)
			k := 0
			for _, sg := range segs {
				k += copy(out[k:], sg.ent.Values[sg.a:sg.b])
			}
			return out
		}
	}
	if len(segs) == 0 {
		return []float64{}
	}
	first := segs[0]
	if first.ent.Buf == nil {
		return first.ent.Values[first.a:first.b:first.b] // the one segment, in its own buffer
	}
	at := first.ent.Off + first.a
	return first.ent.Buf.Values[at : at+total : at+total]
}

// ExtractionStats returns cumulative lazy-extraction counters.
func (e *Engine) ExtractionStats() ExtractStats {
	return ExtractStats{
		Extractions:   e.xstats.extractions.Load(),
		CacheReads:    e.xstats.cacheReads.Load(),
		FilesTouched:  e.xstats.filesTouched.Load(),
		BytesRead:     e.xstats.bytesRead.Load(),
		SamplesServed: e.xstats.samplesServed.Load(),
		RunsRead:      e.xstats.runsRead.Load(),
		RunRecords:    e.xstats.runRecords.Load(),
		DecodeNanos:   e.xstats.decodeNanos.Load(),

		RunsSkipped:     e.xstats.runsSkipped.Load(),
		RecordsSkipped:  e.xstats.recordsSkipped.Load(),
		RecordsAnswered: e.xstats.recordsAnswered.Load(),

		PrefetchedRuns:     e.xstats.prefetchedRuns.Load(),
		PrefetchStallNanos: e.xstats.prefetchStallNanos.Load(),
	}
}

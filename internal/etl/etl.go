// Package etl implements the Extract-Transform-Load engine in both of the
// paper's flavours:
//
//   - Eager (traditional) ETL: LoadAll is the lazy load followed by the
//     extraction stream drained over every record, which fills mseed.data.
//   - Lazy ETL: LoadMetadata performs the metadata-only load (header scans,
//     no payloads) of the files under the root now; actual data is
//     extracted at query time by ExtractStream, which implements
//     plan.ExtractSource — the run-time rewriting operator asks for the
//     universal-table rows of exactly the records that survived the
//     metadata predicates, consulting the recycler cache first (lazy
//     loading) and applying record- and value-level transformations at the
//     end of extraction (§3.2). Lazy
//     goes for columns as for records: the stream replicates only the
//     metadata columns the statement reads (plan.LazyExtract.Cols).
//
// There is one load path. The initial load and every refresh are the same
// call: a merge of the files listed under the root now with the store
// snapshot it replaces, the only record of which files the engine knows. A
// file whose (uri, size, mtime) is unchanged keeps its rows; only new and
// changed files are header-scanned, so a load costs the listing plus work in
// proportion to what changed, and one that finds no change publishes
// nothing. The initial load is the merge against an empty snapshot. Files
// that left or changed lose their recycler and zone-map entries.
//
// # Extraction data path
//
// There is one extraction driver, the morsel stream (stream.go). Pass 1
// (prepare) gives each qualifying record one of three outcomes. Its fresh
// zone can prune it (no sample passes) or, for an aggregate that asks
// (plan.ZoneAnswer), answer it (every sample passes): no recycler lookup,
// read, decode or rows, just its zone folded into the aggregate's partial.
// Else the recycler serves it, or it is a miss; misses are not read record
// by record. Per file, the missed records are sorted by offset and
// coalesced into runs — groups of records whose byte ranges are adjacent
// (or separated by gaps small enough that reading through them beats
// paying another syscall). Each run costs one ReadAt into a pooled
// per-worker scratch buffer; headers and payloads then parse from memory
// and Steim payloads decode through the unrolled, allocation-free decoder
// into a pooled int32 sample buffer. Whole-file prefetch (PrefetchWholeFile)
// is a single run covering the file, scanned with mseed.ScanBuffer.
//
// From there every sample is written once. A run allocates one value buffer
// (recycler.Buffer) sized from the R.num_samples the metadata carries, and
// one pass per record (convert) calibrates the decoded samples straight into
// the record's place in it and returns the record's zone entry. convert has
// two loops. Under a finite positive gain and no clip — the default, and
// every deployment so far — x ↦ fl(x·gain) is monotone and never NaN, so the
// loop is a bare multiply with the integer minimum and maximum kept in two
// registers, and the zone entry is those two extremes transformed; any other
// gain or clip takes the general loop, which collects the zone from the
// values it writes. Both equal catalog.CollectZone of the result bit for bit.
// The int32 scratch between the Steim kernel and this pass is one record
// long and L1-resident; removing it (a fused Steim-to-float64 decoder) was
// measured at under a millisecond per cold Figure-1 Q2 and is not done.
//
// The run owns the buffer only while it decodes:
// when it finishes it publishes each record as a recycler.Entry that views
// its stretch of the buffer (capacity-limited, so nothing can grow into a
// neighbour), and from then on the buffer is read-only and belongs to
// whoever still references it — the recycler, which charges it once while
// any of its entries is cached, and the morsels laid out over it. A record
// whose header disagrees with the planned count decodes into a buffer of
// its own. The run's side effects — zone entries, recycler admission,
// ExtractRecord operators — are handed over once per run, not per record.
//
// The prefetch workers — one per worker of the consuming pool, never more
// than there are runs: the consumer is blocked whenever it is behind them, so
// it occupies no core of its own — claim runs, not files,
// so extraction parallelizes within a single large file as well as across
// files, in plan order, ahead of the consumer, which assembles the rows of
// finished runs into morsels and extracts inline any run it reaches before
// a worker does. Every run owns a disjoint set of metadata-row indices and
// delivers only those rows' entries, and one helper (layout) lays out the
// universal table's rows in metadata-row order, so the output is
// bit-identical at every pool width, morsel size and column list; when
// several runs fail, the error surfaced is deterministically that of the
// earliest run (file order, then offset order) rather than the race winner.
//
// layout copies as little as the morsel allows. What it holds for the
// metadata side is a list of (metadata row, sample count) segments, and that
// is already the column: a listed F.* or R.* column leaves as
// column.Column.Repeat of those segments, the constant-run form — one value
// per record and the records' cumulative row ends, O(records) to build
// instead of O(samples). The grouped aggregate folds once per run straight
// from it; any reader that wants one value per row gets the column's one
// lazy expansion. D.sample_value is a view of the run's buffer whenever the
// morsel's records are consecutive stretches of one — the normal case for
// misses, and for hits that were admitted together — and a copy only when
// they are not: hits beside misses, two runs meeting in one morsel, a record
// in a buffer of its own. D.sample_time is not stored anywhere: mSEED keeps
// no per-sample times, an entry carries the record's start and rate, and
// layout generates the times (sampleTimes) into the morsel only for a
// statement that lists the column. Extract is that same stream drained as
// one full-width morsel and expanded (plan.ExtractAll), as the tests'
// operator-at-a-time reference drains it; the eager LoadAll drains it the
// same way, narrowed to mseed.data's columns.
//
// A statement's D.sample_time range predicates reach the stream as one
// sample window (plan.SampleWindow) and are answered per record, not per
// sample: a sample's time is monotone in its index, so a binary search over
// the expression sampleTimes evaluates finds where the window starts and
// ends inside a record (windowRange), and layout lays out that stretch
// only. Records are decoded and cached whole all the same. The metadata
// predicates derived from the window already keep only records that
// overlap it, so in practice only the first and last record of a series are
// cut and a run's morsel stays one view of its buffer; the rows are those
// the predicates would keep, without a timestamp vector or a selection
// vector per sample. plan.ExtractAll extracts without a window: the tests'
// reference filters sample times one by one.
package etl

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/recycler"
	"repro/internal/repo"
)

// Options tunes the engine.
type Options struct {
	// CacheBudget is the recycler budget in bytes. Defaults to 256 MiB.
	// The paper adjusts this to the dataset but bounds it by RAM.
	CacheBudget int64
	// Gain is the value-level calibration transform: stored sample values
	// are raw counts multiplied by Gain. Defaults to 1.0.
	Gain float64
	// ClipAbs, when positive, is a data-cleaning transform applied at the
	// end of extraction: samples with |value| > ClipAbs (after gain) are
	// clamped to ±ClipAbs, modeling sensor de-spiking.
	ClipAbs float64
	// PrefetchWholeFile switches extraction granularity: on a cache miss
	// the whole file is decoded and every record admitted, instead of only
	// the missed record. Ablation knob for experiment E4.
	PrefetchWholeFile bool
	// DisableCache turns the recycler into a pass-through (every extraction
	// re-reads the source), an experimental baseline.
	DisableCache bool
}

func (o *Options) fill() {
	if o.CacheBudget == 0 {
		o.CacheBudget = 256 << 20
	}
	if o.Gain == 0 {
		o.Gain = 1.0
	}
}

// Stats reports the work done by one load.
type Stats struct {
	Files   int
	Records int
	Samples int64
	// BytesRead is the source bytes the load consumed: every byte of every
	// file for an eager load that publishes, which extracts every record, the
	// 64 header bytes of each record of the files a lazy one scanned — what
	// it parses, which is what the eager-versus-lazy ratio of E2/E3 compares.
	// It is not what the lazy load requests from the OS: the header scan
	// reads files in chunks (mseed.ScanHeaders), because a 64-byte read per
	// record of 4 KiB or less touches every page of the file anyway, and
	// skips unread only records longer than a chunk.
	BytesRead int64
	// RepoBytes is the on-disk size of the files the load listed.
	RepoBytes int64
	// Duration is the whole load: the listing, the header scan and, for the
	// eager load, the extraction after it.
	Duration time.Duration
}

// Engine drives ETL for one repository into one store.
type Engine struct {
	// root is the repository's directory, fixed at New: every load lists
	// the files under it afresh, and extraction opens a record's file as
	// root joined with its F.uri, so the published store snapshot alone
	// records which files the engine knows.
	root  string
	store *catalog.Store
	cache *recycler.Cache
	opts  Options
	// loadMu serializes loads: each builds the next tables from its own
	// listing and publishes them, or nothing, as one.
	loadMu sync.Mutex

	// xstats counters are updated atomically: prefetch workers and the
	// consumer extract concurrently.
	xstats extractCounters

	// scratch pools per-worker extraction buffers (run bytes and decoded
	// samples) across queries.
	scratch sync.Pool
}

// extractCounters backs ExtractStats with atomically updated fields.
type extractCounters struct {
	extractions   atomic.Int64
	cacheReads    atomic.Int64
	filesTouched  atomic.Int64
	bytesRead     atomic.Int64
	samplesServed atomic.Int64
	runsRead      atomic.Int64
	runRecords    atomic.Int64
	decodeNanos   atomic.Int64

	runsSkipped     atomic.Int64
	recordsSkipped  atomic.Int64
	recordsAnswered atomic.Int64

	prefetchedRuns     atomic.Int64
	prefetchStallNanos atomic.Int64
}

// extractScratch is a per-worker buffer set reused across runs and queries.
type extractScratch struct {
	buf     []byte       // run bytes
	samples []int32      // decoded samples of one record
	hdr     mseed.Header // reused header for in-run record parses
}

func (sc *extractScratch) bytes(n int) []byte {
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	return sc.buf[:n]
}

func (sc *extractScratch) ints(n int) []int32 {
	if cap(sc.samples) < n {
		sc.samples = make([]int32, n)
	}
	return sc.samples[:n]
}

func (e *Engine) getScratch() *extractScratch {
	return e.scratch.Get().(*extractScratch)
}

func (e *Engine) putScratch(sc *extractScratch) {
	// Whole-file prefetch runs can balloon the byte buffer; don't pin
	// outsized buffers in the pool.
	if cap(sc.buf) > 2*maxRunBytes {
		sc.buf = nil
	}
	e.scratch.Put(sc)
}

// New creates an engine over the repository rooted at rp.Root. It keeps
// only the root: every load lists the files under it afresh.
func New(rp *repo.Repository, store *catalog.Store, opts Options) *Engine {
	opts.fill()
	budget := opts.CacheBudget
	if opts.DisableCache {
		budget = 0
	}
	e := &Engine{
		root:  rp.Root,
		store: store,
		cache: recycler.New(budget),
		opts:  opts,
	}
	e.scratch.New = func() any { return new(extractScratch) }
	return e
}

// Cache exposes the recycler for inspection (demo point 7).
func (e *Engine) Cache() *recycler.Cache { return e.cache }

// LoadMetadata is the lazy load of what is under the root now: header-only
// scans of the new and changed files, beside every other file's rows carried
// from the snapshot it replaces, fill the two metadata tables, and
// mseed.data stays empty. The first call, against an empty snapshot, is the
// initial load and every later one a refresh. Stats.BytesRead counts the
// header bytes parsed, 64 a record scanned.
func (e *Engine) LoadMetadata() (Stats, error) { return e.load(false) }

// LoadAll is the eager load of what is under the root now: LoadMetadata's
// merge, and then mseed.data is the extraction stream drained over every
// record of the merged tables — no prune, no window, one prefetch worker per
// processor. Stats.BytesRead is every byte of every file, or 0 when nothing
// changed and nothing is published.
func (e *Engine) LoadAll() (Stats, error) { return e.load(true) }

// load merges the files listed under the root with the replaced snapshot's
// mseed.files, both in uri order, carrying each file whose (uri, size,
// mtime) is unchanged. A load that carries every file, lists no other and
// keeps mseed.data's mode publishes nothing; any other publishes only if
// every step succeeded, and then drops the recycler and zone-map entries of
// every replaced file it did not carry, removed or changed.
func (e *Engine) load(eager bool) (st Stats, err error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	start := time.Now()
	defer func() { st.Duration = time.Since(start) }()
	rp, err := repo.Open(e.root)
	if err != nil {
		return st, err
	}
	st.Files, st.RepoBytes = len(rp.Files), rp.TotalSize()
	snap := e.store.Snapshot()
	files, _ := snap.Table(catalog.TableFiles)
	records, _ := snap.Table(catalog.TableRecords)
	// uri, file_size and mod_time; from[x] is the row listed file x carries,
	// or -1.
	uris, sizes, mtimes := files.ColAt(1).Strings(), files.ColAt(14).Int64s(), files.ColAt(15).Int64s()
	from := make([]int, len(rp.Files))
	carried := make([]bool, len(uris))
	for x, j := 0, 0; x < len(rp.Files); x++ {
		f := rp.Files[x]
		for j < len(uris) && uris[j] < f.URI {
			j++
		}
		from[x] = -1
		if j < len(uris) && uris[j] == f.URI && sizes[j] == f.Size && mtimes[j] == f.ModTime.UnixNano() {
			from[x], carried[j] = j, true
		}
	}
	changed := slices.Contains(from, -1) || len(uris) != len(rp.Files) || (snap.Rows(catalog.TableData) > 0) != eager
	if changed {
		if files, records, st.BytesRead, err = merge(rp.Files, from, files, records); err != nil {
			return st, err
		}
	}
	st.Records = records.NumRows()
	for _, n := range files.ColAt(13).Int64s() { // num_samples
		st.Samples += n
	}
	if !changed {
		return st, nil
	}
	data := column.MustNewBatch(newColumns(catalog.DataColumns)...)
	if eager {
		if data, err = e.extractData(files, records); err != nil {
			return st, err
		}
		st.BytesRead = st.RepoBytes
	}
	// One atomic commit: a concurrent query snapshot sees either the old
	// or the new metadata, never files rows from one scan next to records
	// rows from another.
	if err := e.store.ReplaceAll(map[string]*column.Batch{
		catalog.TableFiles:   files,
		catalog.TableRecords: records,
		catalog.TableData:    data,
	}); err != nil {
		return st, err
	}
	for j, uri := range uris {
		if !carried[j] {
			e.cache.InvalidateFile(uri)
			e.store.Zones().InvalidateFile(uri)
		}
	}
	return st, nil
}

// merge assembles the next mseed.files and mseed.records in listing order:
// each run of consecutive carried files (from[x] >= 0) as one range of the
// replaced tables, whose records rows are in file order, and every other
// file from its header scan on the pool. file_id, the listing index, is
// written once over both. It returns the header bytes parsed.
func merge(listed []repo.File, from []int, files, records *column.Batch) (*column.Batch, *column.Batch, int64, error) {
	// A scan that fails or panics fails its own file, and the lowest-indexed
	// failure is reported, as a serial scan would report it.
	scans := make([][]mseed.RecordInfo, len(listed))
	err := exec.NewPool(0).Run(len(listed), func(x int) (err error) {
		if from[x] >= 0 {
			return nil // carried
		}
		defer func() {
			if err != nil {
				err = fmt.Errorf("etl: metadata scan %s: %w", listed[x].URI, err)
			}
		}()
		defer exec.RecoverTo(&err)
		scanFileHook(x)
		scans[x], err = mseed.ScanFile(listed[x].AbsPath)
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	recStart := []int{0}
	for _, n := range files.ColAt(12).Int64s() { // num_records
		recStart = append(recStart, recStart[len(recStart)-1]+int(n))
	}
	fcols, rcols := newColumns(catalog.FilesColumns), newColumns(catalog.RecordsColumns)
	var parsed int64
	for x := 0; x < len(listed); {
		if j := from[x]; j >= 0 {
			y := x + 1
			for y < len(from) && from[y] == j+y-x {
				y++
			}
			appendRows(fcols, files, j, j+y-x)
			appendRows(rcols, records, recStart[j], recStart[j+y-x])
			x = y
			continue
		}
		appendFile(fcols, listed[x], scans[x])
		for _, ri := range scans[x] {
			appendRecord(rcols, ri)
		}
		parsed += int64(len(scans[x])) * 64 // header bytes parsed per record
		x++
	}
	nrecs := fcols[12].Int64s()
	ids, recIDs := make([]int64, len(nrecs)), make([]int64, 0, rcols[1].Len())
	for x, n := range nrecs {
		ids[x] = int64(x)
		for range n {
			recIDs = append(recIDs, int64(x))
		}
	}
	fcols[0], rcols[0] = column.NewInt64s("file_id", ids), column.NewInt64s("file_id", recIDs)
	return column.MustNewBatch(fcols...), column.MustNewBatch(rcols...), parsed, nil
}

// scanFileHook runs first in the header scan of file x; tests make it panic.
var scanFileHook = func(x int) {}

// dataColumns are the universal-table columns mseed.data holds, in its
// column order.
var dataColumns = []string{"R.file_id", "R.seqno", "D.sample_time", "D.sample_value"}

// extractData is mseed.data: the extraction stream over every loaded record,
// drained at full width by plan.ExtractAll with the columns renamed to
// mseed.data's. Its metadata is each record's row beside its file's uri and
// record length.
func (e *Engine) extractData(files, records *column.Batch) (*column.Batch, error) {
	ids, _ := records.Col("file_id")
	fileRow := make([]int32, ids.Len())
	for i, id := range ids.Int64s() {
		fileRow[i] = int32(id) // ids are dense: a file's id is its row
	}
	var meta []*column.Column
	for _, name := range []string{"file_id", "seqno", "num_samples", "file_offset"} {
		c, _ := records.Col(name)
		meta = append(meta, c.WithName("R."+name))
	}
	for _, name := range []string{"uri", "record_length"} {
		c, _ := files.Col(name)
		meta = append(meta, c.Gather(fileRow).WithName("F."+name))
	}
	data, err := plan.ExtractAll(e, column.MustNewBatch(meta...), dataColumns, nil, plan.NopObserver{}, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	cols := make([]*column.Column, len(catalog.DataColumns))
	for i, cd := range catalog.DataColumns {
		cols[i] = data.ColAt(i).WithName(cd.Name)
	}
	return column.NewBatch(cols...)
}

// convert applies the value-level transformations — calibration gain, then
// optional de-spiking — of §3.2's "transformations performed on a fine
// granularity added to the end of the extraction phase": dst[i] is the
// transformed samples[i]. It returns the zone entry of what it wrote, equal to
// catalog.CollectZone(dst), from whichever of its two loops the settings
// allow.
func (e *Engine) convert(dst []float64, samples []int32) catalog.ZoneEntry {
	gain, clip := e.opts.Gain, e.opts.ClipAbs
	if gainOnly(gain, clip) {
		return convertGain(dst, samples, gain)
	}
	return convertGeneral(dst, samples, gain, clip)
}

// gainOnly reports whether the transform is a multiplication by a finite
// positive gain and nothing else.
func gainOnly(gain, clip float64) bool {
	return gain > 0 && !math.IsInf(gain, 1) && !(clip > 0)
}

// convertGain is convert for a finite positive gain and no clip: a bare
// multiply loop with the integer minimum, maximum and sum kept beside it.
// The transform is monotone, so the extremes of the values are the
// transformed extremes of the samples — an overflow to ±Inf included, which
// the zone counts as finite, as CollectZone does.
func convertGain(dst []float64, samples []int32, gain float64) catalog.ZoneEntry {
	n := int64(len(samples))
	if n == 0 {
		return catalog.ZoneEntry{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	dst = dst[:len(samples)]
	lo, hi := samples[0], samples[0]
	var sum int64
	for i, s := range samples {
		dst[i] = float64(s) * gain
		lo, hi = min(lo, s), max(hi, s)
		sum += int64(s)
	}
	return catalog.ZoneEntry{Min: float64(lo) * gain, Max: float64(hi) * gain, Finite: n, Samples: n, Sum: sum}
}

// convertGeneral is convert for any gain and clip.
func convertGeneral(dst []float64, samples []int32, gain, clip float64) catalog.ZoneEntry {
	z := catalog.ZoneEntry{Min: math.Inf(1), Max: math.Inf(-1), Samples: int64(len(samples))}
	for i, s := range samples {
		v := float64(s) * gain
		if clip > 0 {
			if v > clip {
				v = clip
			} else if v < -clip {
				v = -clip
			}
		}
		dst[i] = v
		if v != v { // NaN: an infinite or NaN gain can make one
			z.NaNs++
			continue
		}
		z.Finite++
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	return z
}

// sampleTimes is the record-level transformation: the mSEED format stores no
// per-sample times, so dst[k], the time of the record's sample first+k, is
// derived from the record's start time (ns) and sample rate (Hz) by
// sampleTime — bit for bit the same value whichever sample the slice
// starts at. A record with no positive rate (log and state-of-health records
// carry a zero rate factor) has no spacing to derive: every sample sits at
// the start time, which is also what mseed.Header.EndNanos reports for it.
func sampleTimes(dst []int64, start int64, rate float64, first int) {
	if rate <= 0 {
		for i := range dst {
			dst[i] = start
		}
		return
	}
	for k := range dst {
		dst[k] = sampleTime(start, rate, first+k)
	}
}

// sampleTime is the time of sample i of a record with a positive rate: the
// one expression sampleTimes generates and windowRange searches.
func sampleTime(start int64, rate float64, i int) int64 {
	return start + int64(float64(i)/rate*1e9)
}

// newColumns returns one empty column per definition.
func newColumns(defs []catalog.ColumnDef) []*column.Column {
	cols := make([]*column.Column, len(defs))
	for i, cd := range defs {
		cols[i] = column.New(cd.Name, cd.Type)
	}
	return cols
}

// appendRows appends rows [lo, hi) of a replaced table, file_id aside.
func appendRows(cols []*column.Column, b *column.Batch, lo, hi int) {
	for c := 1; c < len(cols); c++ {
		_ = cols[c].AppendColumn(b.ColAt(c).Range(lo, hi)) // one schema: the types match
	}
}

// appendFile appends a scanned file's mseed.files row, file_id aside.
func appendFile(cols []*column.Column, f repo.File, infos []mseed.RecordInfo) {
	first := &mseed.Header{}
	var start, end, samples int64
	for i, ri := range infos {
		h := ri.Header
		if i == 0 {
			first, start, end = h, h.StartNanos(), h.EndNanos()
		}
		start, end = min(start, h.StartNanos()), max(end, h.EndNanos())
		samples += int64(h.NumSamples)
	}
	cols[1].AppendString(f.URI)
	cols[2].AppendString(first.Network)
	cols[3].AppendString(first.Station)
	cols[4].AppendString(first.Location)
	cols[5].AppendString(first.Channel)
	cols[6].AppendString(string(first.Quality))
	cols[7].AppendString(first.Encoding.String())
	cols[8].AppendInt64(int64(first.RecordLength))
	cols[9].AppendFloat64(first.SampleRate())
	cols[10].AppendInt64(start)
	cols[11].AppendInt64(end)
	cols[12].AppendInt64(int64(len(infos)))
	cols[13].AppendInt64(samples)
	cols[14].AppendInt64(f.Size)
	cols[15].AppendInt64(f.ModTime.UnixNano())
}

// appendRecord appends a scanned record's mseed.records row, file_id aside.
func appendRecord(cols []*column.Column, ri mseed.RecordInfo) {
	h := ri.Header
	cols[1].AppendInt64(int64(h.SeqNo))
	cols[2].AppendInt64(h.StartNanos())
	cols[3].AppendInt64(h.EndNanos())
	cols[4].AppendFloat64(h.SampleRate())
	cols[5].AppendInt64(int64(h.NumSamples))
	cols[6].AppendInt64(ri.Offset)
}

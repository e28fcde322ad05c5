package etl

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/sql"
)

// newEngineAt opens an engine over an existing repository directory (unlike
// newEngine, which generates a fresh one), so several engines can share one
// set of files.
func newEngineAt(t *testing.T, dir string, opts Options) (*Engine, *catalog.Store, string) {
	t.Helper()
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := catalog.NewStore(catalog.MSEED())
	return New(rp, store, opts), store, dir
}

// listed lists the files under the engine's root, as its next load will.
func listed(t testing.TB, e *Engine) []repo.File {
	t.Helper()
	rp, err := repo.Open(e.root)
	if err != nil {
		t.Fatal(err)
	}
	return rp.Files
}

// numSamplesFieldOffset is where the fixed header stores the sample count
// (big-endian uint16), relative to the record start.
const numSamplesFieldOffset = 30

// patchRecordSampleCount rewrites the NumSamples field of the record at the
// given offset in a file on disk, returning the original count.
func patchRecordSampleCount(t *testing.T, path string, recordOffset int64, count uint16) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := data[recordOffset+numSamplesFieldOffset : recordOffset+numSamplesFieldOffset+2]
	orig := int(binary.BigEndian.Uint16(field))
	binary.BigEndian.PutUint16(field, count)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return orig
}

// fileFor returns the absolute path and URI of the engine's file for the
// given station/channel pair.
func fileFor(t *testing.T, e *Engine, station, channel string) (path, uri string) {
	t.Helper()
	for _, f := range listed(t, e) {
		if strings.Contains(f.URI, station) && strings.Contains(f.URI, channel) {
			return f.AbsPath, f.URI
		}
	}
	t.Fatalf("no file for %s/%s", station, channel)
	return "", ""
}

func countQuery(station, channel string) string {
	return fmt.Sprintf(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '%s' AND F.channel = '%s'`,
		station, channel)
}

// TestExtractZeroSampleRecord patches one record's sample count to zero
// before the metadata load: extraction must serve the remaining records and
// contribute zero rows (not an error) for the empty record.
func TestExtractZeroSampleRecord(t *testing.T) {
	e, store, _ := newEngine(t, 3000, Options{})
	path, _ := fileFor(t, e, "HGN", "BHZ")
	infos, err := mseed.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 3 {
		t.Fatalf("file has %d records, want >= 3", len(infos))
	}
	victim := infos[1]
	orig := patchRecordSampleCount(t, path, victim.Offset, 0)
	if orig != victim.Header.NumSamples || orig == 0 {
		t.Fatalf("patched count %d, header said %d", orig, victim.Header.NumSamples)
	}
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	b := runLazyQuery(t, e, store, countQuery("HGN", "BHZ"))
	if got, want := b.Row(0)[0].I, int64(3000-orig); got != want {
		t.Errorf("count = %d, want %d (zero-sample record must contribute no rows)", got, want)
	}

	// Zero rows are a result too, whichever way they come about: no
	// qualifying record at all, or every record pruned by the zone maps the
	// query above collected. Both yield the full-width header and no rows.
	meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview WHERE F.station = 'HGN' AND F.channel = 'BHZ'`)
	cond, err := sql.Parse(`SELECT x FROM t WHERE D.sample_value > 1e300`)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Join(append(meta.Names(), "D.sample_time", "D.sample_value"), ",")
	for _, c := range []struct {
		name    string
		meta    *column.Batch
		prune   *plan.PruneRange
		skipped int
	}{
		{"empty metadata batch", meta.Range(0, 0), nil, 0},
		{"all records zone-pruned", meta, plan.CompilePrune(sql.SplitConjuncts(cond.Where)), meta.NumRows()},
	} {
		before := e.ExtractionStats()
		out, err := e.Extract(c.meta, c.prune, plan.NopObserver{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := strings.Join(out.Names(), ","); out.NumRows() != 0 || got != header {
			t.Errorf("%s: %d rows under [%s], want 0 under [%s]", c.name, out.NumRows(), got, header)
		}
		after := e.ExtractionStats()
		if got := after.RecordsSkipped - before.RecordsSkipped; got != int64(c.skipped) {
			t.Errorf("%s: zone maps skipped %d records, want %d", c.name, got, c.skipped)
		}
		if after.RunsRead != before.RunsRead || after.CacheReads != before.CacheReads {
			t.Errorf("%s: read %d runs and %d cache entries for no rows", c.name,
				after.RunsRead-before.RunsRead, after.CacheReads-before.CacheReads)
		}
	}
}

// TestExtractStaleSampleCountMisfit patches a record after the metadata
// load, so the decoded length disagrees with R.num_samples: extraction must
// lay the output out from the length it decoded, not the one it was told.
func TestExtractStaleSampleCountMisfit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e, store, _ := newEngine(t, 3000, Options{})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			path, _ := fileFor(t, e, "HGN", "BHZ")
			infos, err := mseed.ScanFile(path)
			if err != nil {
				t.Fatal(err)
			}
			victim := infos[1]
			orig := patchRecordSampleCount(t, path, victim.Offset, 0)
			b := runLazyQueryAt(t, e, store, countQuery("HGN", "BHZ"), workers)
			if got, want := b.Row(0)[0].I, int64(3000-orig); got != want {
				t.Errorf("count = %d, want %d (misfit record must shrink the output)", got, want)
			}
		})
	}
}

// TestExtractStaleMtimeReextraction bumps a source file's mtime after a
// warming query: cached entries must invalidate and the next query must
// re-extract that file's records, with identical results.
func TestExtractStaleMtimeReextraction(t *testing.T) {
	e, store, _ := newEngine(t, 2000, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview
	      WHERE F.station = 'HGN' AND F.channel = 'BHZ'`
	first := runLazyQuery(t, e, store, q)
	warmExtractions := e.ExtractionStats().Extractions
	if warmExtractions == 0 {
		t.Fatal("no extractions on cold run")
	}

	// A warm re-run is pure cache reads.
	runLazyQuery(t, e, store, q)
	if got := e.ExtractionStats().Extractions; got != warmExtractions {
		t.Fatalf("warm run extracted: %d -> %d", warmExtractions, got)
	}

	path, _ := fileFor(t, e, "HGN", "BHZ")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	future := st.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	again := runLazyQuery(t, e, store, q)
	if got := e.ExtractionStats().Extractions; got != 2*warmExtractions {
		t.Errorf("stale-mtime run extracted %d records total, want %d (full re-extraction)",
			got, 2*warmExtractions)
	}
	if first.String() != again.String() {
		t.Errorf("re-extraction changed results:\nbefore: %v\nafter: %v", first, again)
	}
}

// TestPrefetchCacheOverflowFallback runs the whole-file prefetch ablation
// with a cache budget too small to admit anything: every qualifying record
// must fall back to a direct decode from the prefetched buffer.
func TestPrefetchCacheOverflowFallback(t *testing.T) {
	e, store, _ := newEngine(t, 3000, Options{PrefetchWholeFile: true, CacheBudget: 1})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	b := runLazyQuery(t, e, store, countQuery("HGN", "BHZ"))
	if got := b.Row(0)[0].I; got != 3000 {
		t.Errorf("count = %d, want 3000", got)
	}
	if e.Cache().Len() != 0 {
		t.Errorf("cache admitted %d entries despite a 1-byte budget", e.Cache().Len())
	}
	st := e.ExtractionStats()
	if st.Extractions == 0 {
		t.Error("no extractions recorded")
	}
	if st.RunsRead == 0 || st.RunRecords == 0 {
		t.Errorf("run counters not threaded: %+v", st)
	}
}

// TestExtractBitIdenticalAcrossParallelism requires the raw universal-table
// output (not just aggregates) to be byte-identical at every pool width —
// and so at every number of prefetch workers — cold and warm.
func TestExtractBitIdenticalAcrossParallelism(t *testing.T) {
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.channel = 'BHZ' AND F.station = 'ISK'`
	var cold, warm []string
	var runs []int64
	for _, workers := range []int{1, 2, 4, 8} {
		e, store, _ := newEngine(t, 3000, Options{})
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		cold = append(cold, runLazyQueryAt(t, e, store, q, workers).String())
		warm = append(warm, runLazyQueryAt(t, e, store, q, workers).String())
		runs = append(runs, e.ExtractionStats().RunsRead)
	}
	for i := 1; i < len(cold); i++ {
		if cold[i] != cold[0] {
			t.Errorf("cold output differs between pool widths")
		}
		if warm[i] != warm[0] {
			t.Errorf("warm output differs between pool widths")
		}
		if runs[i] != runs[0] {
			t.Errorf("run plans differ across pool widths: %v", runs)
		}
	}
	if warm[0] == "" || cold[0] != warm[0] {
		t.Errorf("warm output differs from cold output")
	}
}

// TestExtractDeterministicErrorOrder corrupts several qualifying files and
// requires the parallel extractor to report the same error as the serial
// one — the earliest failing file in extraction order, not the race winner.
func TestExtractDeterministicErrorOrder(t *testing.T) {
	_, _, dir := newEngine(t, 2000, Options{})
	// Corrupt one mid-file record header in every BHZ file: metadata stays
	// valid (loaded before corruption below), decode fails.
	corrupt := func(e *Engine) {
		n := 0
		for _, f := range listed(t, e) {
			if !strings.Contains(f.URI, "BHZ") {
				continue
			}
			data, err := os.ReadFile(f.AbsPath)
			if err != nil {
				t.Fatal(err)
			}
			copy(data[512:518], "??????") // second record's sequence number
			if err := os.WriteFile(f.AbsPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n < 2 {
			t.Fatalf("corrupted %d files, want >= 2", n)
		}
	}
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	// All engines load metadata before the corruption, so the scan sees
	// valid headers and only run-time extraction hits the damage.
	serial, serialStore, _ := newEngineAt(t, dir, Options{})
	if _, err := serial.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const tries = 4
	pars := make([]*Engine, tries)
	parStores := make([]*catalog.Store, tries)
	for i := range pars {
		par, parStore, _ := newEngineAt(t, dir, Options{})
		if _, err := par.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		pars[i], parStores[i] = par, parStore
	}
	corrupt(serial)

	_, serialErr := runLazyQueryErr(serial, serialStore, q)
	if serialErr == nil {
		t.Fatal("serial extraction over corrupt files did not fail")
	}
	for try := 0; try < tries; try++ {
		_, parErr := runQueryEnv(pars[try], parStores[try], q, 8, 0, false)
		if parErr == nil {
			t.Fatal("parallel extraction over corrupt files did not fail")
		}
		if parErr.Error() != serialErr.Error() {
			t.Fatalf("try %d: parallel error %q != serial error %q", try, parErr, serialErr)
		}
	}
}

package etl

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
	"repro/internal/sql"
)

func newEngine(t *testing.T, samples int, opts Options) (*Engine, *catalog.Store, string) {
	t.Helper()
	dir := t.TempDir()
	_, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, SamplesPerDay: samples, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := catalog.NewStore(catalog.MSEED())
	return New(rp, store, opts), store, dir
}

func TestLoadMetadataVsLoadAll(t *testing.T) {
	e, store, _ := newEngine(t, 2000, Options{})
	st, err := e.LoadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 15 || st.Records == 0 {
		t.Fatalf("metadata stats: %+v", st)
	}
	if store.Snapshot().Rows(catalog.TableFiles) != 15 {
		t.Errorf("files rows = %d", store.Snapshot().Rows(catalog.TableFiles))
	}
	if store.Snapshot().Rows(catalog.TableRecords) != st.Records {
		t.Errorf("records rows = %d, want %d", store.Snapshot().Rows(catalog.TableRecords), st.Records)
	}
	if store.Snapshot().Rows(catalog.TableData) != 0 {
		t.Errorf("data rows = %d, want 0", store.Snapshot().Rows(catalog.TableData))
	}
	metaBytes := st.BytesRead

	st2, err := e.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(store.Snapshot().Rows(catalog.TableData)) != st2.Samples {
		t.Errorf("data rows = %d, want %d", store.Snapshot().Rows(catalog.TableData), st2.Samples)
	}
	if st2.Samples != int64(15*2000) {
		t.Errorf("samples = %d, want %d", st2.Samples, 15*2000)
	}
	if st2.BytesRead <= metaBytes*2 {
		t.Errorf("eager read %d bytes vs metadata %d; expected much more", st2.BytesRead, metaBytes)
	}
	data, err := store.Table(catalog.TableData)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < data.NumCols(); c++ {
		if _, _, ok := data.ColAt(c).Runs(); ok {
			t.Errorf("stored mseed.data column %s is in run form", data.ColAt(c).Name())
		}
	}
}

func TestFilesTableContents(t *testing.T) {
	e, store, _ := newEngine(t, 1500, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	fb, err := store.Table(catalog.TableFiles)
	if err != nil {
		t.Fatal(err)
	}
	uriCol, _ := fb.Col("uri")
	stCol, _ := fb.Col("station")
	nsCol, _ := fb.Col("num_samples")
	startCol, _ := fb.Col("start_time")
	endCol, _ := fb.Col("end_time")
	for i := 0; i < fb.NumRows(); i++ {
		if !strings.Contains(uriCol.Strings()[i], stCol.Strings()[i]) {
			t.Errorf("uri %q does not contain station %q", uriCol.Strings()[i], stCol.Strings()[i])
		}
		if nsCol.Int64s()[i] != 1500 {
			t.Errorf("file %d num_samples = %d", i, nsCol.Int64s()[i])
		}
		if startCol.Int64s()[i] >= endCol.Int64s()[i] {
			t.Errorf("file %d start >= end", i)
		}
	}
}

// runLazyQuery builds and runs a dataview query through the lazy plan.
func runLazyQuery(t *testing.T, e *Engine, store *catalog.Store, q string) *column.Batch {
	t.Helper()
	b, err := runLazyQueryErr(e, store, q)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runLazyQueryAt is runLazyQuery on a pool of the given worker count, which
// is also what sizes the extraction stream's read-ahead.
func runLazyQueryAt(t *testing.T, e *Engine, store *catalog.Store, q string, workers int) *column.Batch {
	t.Helper()
	b, err := runQueryEnv(e, store, q, workers, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runLazyQueryErr(e *Engine, store *catalog.Store, q string) (*column.Batch, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	plans, err := plan.Build(stmt, store.Catalog(), plan.Lazy)
	if err != nil {
		return nil, err
	}
	return plan.Execute(plans.Root, &plan.Env{Store: store.Snapshot(), Source: e})
}

func TestExtractTransformsValues(t *testing.T) {
	const gain = 2.5
	e, store, _ := newEngine(t, 800, Options{Gain: gain})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	// Compare against an ungained engine: values scale by exactly gain.
	e1, store1, _ := newEngine(t, 800, Options{})
	if _, err := e1.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHZ'`
	gained := runLazyQuery(t, e, store, q)
	plain := runLazyQuery(t, e1, store1, q)
	// Different temp dirs but same seed: same waveforms.
	if gained.Row(0)[0].F != plain.Row(0)[0].F*gain {
		t.Errorf("min: %g != %g * %g", gained.Row(0)[0].F, plain.Row(0)[0].F, gain)
	}
	if gained.Row(0)[1].F != plain.Row(0)[1].F*gain {
		t.Errorf("max: %g != %g * %g", gained.Row(0)[1].F, plain.Row(0)[1].F, gain)
	}
}

func TestExtractClipTransform(t *testing.T) {
	e, store, _ := newEngine(t, 800, Options{ClipAbs: 10})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview WHERE F.channel = 'BHZ'`
	res := runLazyQuery(t, e, store, q)
	if res.Row(0)[0].F < -10 || res.Row(0)[1].F > 10 {
		t.Errorf("clip failed: min=%v max=%v", res.Row(0)[0], res.Row(0)[1])
	}
}

func TestExtractSampleTimesMatchRecordStart(t *testing.T) {
	e, store, _ := newEngine(t, 600, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	b := runLazyQuery(t, e, store,
		`SELECT R.start_time, MIN(D.sample_time) FROM mseed.dataview
		 WHERE F.station = 'HGN' AND F.channel = 'BHZ' GROUP BY R.start_time`)
	st, _ := b.Col("R.start_time")
	mn, _ := b.Col("MIN(D.sample_time)")
	for i := 0; i < b.NumRows(); i++ {
		if st.Int64s()[i] != mn.Int64s()[i] {
			t.Errorf("record %d: first sample time %d != record start %d",
				i, mn.Int64s()[i], st.Int64s()[i])
		}
	}
}

func TestPrefetchWholeFileAblation(t *testing.T) {
	e, store, _ := newEngine(t, 2000, Options{PrefetchWholeFile: true})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	// A query over one record's time slice still caches the whole file.
	b := runLazyQuery(t, e, store,
		`SELECT COUNT(*) FROM mseed.dataview
		 WHERE F.station = 'ISK' AND F.channel = 'BHE'
		 AND R.seqno = 1`)
	if b.Row(0)[0].I == 0 {
		t.Fatal("no rows for seqno 1")
	}
	// All records of the touched file are now cached, not just seqno 1.
	rb, _ := store.Table(catalog.TableRecords)
	recordsPerFile := 0
	fidCol, _ := rb.Col("file_id")
	for _, id := range fidCol.Int64s() {
		if id == fidCol.Int64s()[0] {
			recordsPerFile++
		}
	}
	if got := e.Cache().Len(); got < recordsPerFile {
		t.Errorf("cache has %d entries, want >= %d (whole file)", got, recordsPerFile)
	}
	if e.ExtractionStats().Extractions == 0 {
		t.Error("no extractions recorded")
	}
}

func TestExtractMissingMetadataColumns(t *testing.T) {
	e, _, _ := newEngine(t, 100, Options{})
	bad := column.MustNewBatch(column.NewInt64s("x", []int64{1}))
	if _, err := e.Extract(bad, nil, plan.NopObserver{}); err == nil {
		t.Error("extraction without F.uri should fail")
	}
	noSeq := column.MustNewBatch(column.NewStrings("F.uri", []string{"a"}))
	if _, err := e.Extract(noSeq, nil, plan.NopObserver{}); err == nil {
		t.Error("extraction without R.seqno should fail")
	}
}

func TestExtractUnknownFile(t *testing.T) {
	e, _, _ := newEngine(t, 100, Options{})
	meta := column.MustNewBatch(
		column.NewStrings("F.uri", []string{"ghost.mseed"}),
		column.NewInt64s("R.seqno", []int64{1}),
		column.NewInt64s("R.file_offset", []int64{0}),
	)
	if _, err := e.Extract(meta, nil, plan.NopObserver{}); err == nil {
		t.Error("extraction of unknown file should fail")
	}
}

// TestLoadDropsRemovedFiles: a load drops a file that left the repository
// from the tables, and with it the file's recycler and zone-map entries —
// found by diffing the replaced snapshot's mseed.files against the new
// listing — while the entries of the files that stayed survive.
func TestLoadDropsRemovedFiles(t *testing.T) {
	e, store, _ := newEngine(t, 400, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	before := store.Snapshot().Rows(catalog.TableFiles)

	// Warm the cache and the zone maps, then remove one file.
	runLazyQuery(t, e, store, `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'WIT'`)
	var victim repo.File
	for _, f := range listed(t, e) {
		if strings.Contains(f.URI, "WIT") {
			victim = f
			break
		}
	}
	if victim.URI == "" {
		t.Fatal("no WIT file")
	}
	infos, err := mseed.ScanFile(victim.AbsPath)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(uri string) (n int) {
		for _, c := range e.Cache().Contents() {
			if c.Key.URI == uri {
				n++
			}
		}
		return n
	}
	zones := store.Zones().Records()
	if cached(victim.URI) != len(infos) || zones <= len(infos) {
		t.Fatalf("setup: %d of the victim's %d records cached, %d zone entries", cached(victim.URI), len(infos), zones)
	}
	if err := os.Remove(victim.AbsPath); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	if got := store.Snapshot().Rows(catalog.TableFiles); got != before-1 {
		t.Errorf("files after the load = %d, want %d", got, before-1)
	}
	if n := cached(victim.URI); n != 0 {
		t.Errorf("%d recycler entries of the removed file survived the load", n)
	}
	if got := store.Zones().Records(); got != zones-len(infos) {
		t.Errorf("zone entries after the load = %d, want %d - %d", got, zones, len(infos))
	}
	if _, ok := store.Zones().Get(victim.URI, victim.ModTime, victim.Size, infos[0].Header.SeqNo); ok {
		t.Error("the removed file's zone entry survived the load")
	}
	if e.Cache().Len() != zones-len(infos) {
		t.Errorf("recycler holds %d entries after the load, want the %d of the files that stayed", e.Cache().Len(), zones-len(infos))
	}
}

// TestDisableCache: with the recycler disabled every record a query
// delivers in rows is decoded again. The ungrouped COUNT(*) takes its
// records from their zones the second time — zones are not the recycler —
// so pruned + answered + decoded = qualifying on each run; the grouped
// statement decodes every record both times.
func TestDisableCache(t *testing.T) {
	e, store, _ := newEngine(t, 500, Options{DisableCache: true})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const where = ` FROM mseed.dataview WHERE F.station = 'DBN' AND F.channel = 'BHN'`
	q := `SELECT COUNT(*)` + where
	qualifying := runLazyQuery(t, e, store, `SELECT COUNT(*) FROM mseed.records r JOIN mseed.files f ON f.file_id = r.file_id WHERE f.station = 'DBN' AND f.channel = 'BHN'`).Row(0)[0].I
	for run, want := range []struct{ decoded, answered int64 }{{qualifying, 0}, {0, qualifying}} {
		before := e.ExtractionStats()
		runLazyQuery(t, e, store, q)
		after := e.ExtractionStats()
		decoded, answered := after.Extractions-before.Extractions, after.RecordsAnswered-before.RecordsAnswered
		pruned := after.RecordsSkipped - before.RecordsSkipped
		if decoded != want.decoded || answered != want.answered || pruned+answered+decoded != qualifying {
			t.Errorf("run %d: %d pruned + %d answered + %d decoded of %d qualifying, want %+v", run, pruned, answered, decoded, qualifying, want)
		}
	}
	grouped := `SELECT F.station, COUNT(*)` + where + ` GROUP BY F.station`
	runLazyQuery(t, e, store, grouped)
	first := e.ExtractionStats().Extractions
	runLazyQuery(t, e, store, grouped)
	second := e.ExtractionStats().Extractions
	if second-first != qualifying {
		t.Errorf("extractions %d then %d; cache should be disabled", first, second)
	}
	if e.Cache().Len() != 0 {
		t.Error("disabled cache holds entries")
	}
}

// TestLoadMetadataAllocs gates what the lazy load allocates. A first load —
// a fresh store each run, so every file is scanned — allocates per file a
// header slab, the infos that point into it and the handful of objects an
// open costs, plus the columns' amortised growth: well under one allocation
// per record. (A header and three identification strings per record, as a
// per-record parse allocates, is four.) An unchanged reload scans nothing
// and publishes nothing: what it allocates is the listing and the merge, in
// proportion to the files, not the records. Machine-independent: it counts
// allocations, not time.
func TestLoadMetadataAllocs(t *testing.T) {
	e, _, dir := newEngine(t, 60000, Options{})
	st, err := e.LoadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.MSEED()
	first := testing.AllocsPerRun(5, func() {
		fresh := New(&repo.Repository{Root: dir}, catalog.NewStore(cat), Options{})
		if _, err := fresh.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := first / float64(st.Records); perRecord >= 0.5 {
		t.Errorf("a first load allocated %.0f times for %d records in %d files (%.2f per record), want < 0.5",
			first, st.Records, st.Files, perRecord)
	} else {
		t.Logf("first load: %.0f allocations for %d records in %d files (%.3f per record)", first, st.Records, st.Files, perRecord)
	}
	reload := testing.AllocsPerRun(5, func() {
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
	})
	if perFile := reload / float64(st.Files); perFile >= 32 {
		t.Errorf("an unchanged reload allocated %.0f times for %d files (%.1f per file; %d records), want < 32 per file",
			reload, st.Files, perFile, st.Records)
	} else {
		t.Logf("unchanged reload: %.0f allocations for %d files (%.1f per file; %d records)", reload, st.Files, perFile, st.Records)
	}
}

// TestLoadMetadataRejectsYearPast2261 plants a record whose start year has no
// nanosecond timestamp (time.Time.UnixNano wraps past 2262-04-11) behind a
// valid one: the load fails naming the file and the record's offset instead
// of installing a wrapped R.start_time that window predicates would silently
// compare against.
func TestLoadMetadataRejectsYearPast2261(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	for i, year := range []uint16{2010, 2300} {
		h := &mseed.Header{
			SeqNo: i + 1, Quality: mseed.QualityUnknown, Network: "NL", Station: "HGN", Channel: "BHZ",
			Start: mseed.BTime{Year: year, Doy: 12}, RateFactor: 40, RateMultiplier: 1,
			Encoding: mseed.EncodingSteim2, RecordLength: 512,
		}
		rec, _, err := mseed.EncodeRecord(h, []int32{1, 2, 3, 5, 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, "future.mseed"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, store, _ := newEngineAt(t, dir, Options{})
	_, err := e.LoadMetadata()
	if !errors.Is(err, mseed.ErrBadHeader) || !strings.Contains(err.Error(), "future.mseed") || !strings.Contains(err.Error(), "offset 512") {
		t.Fatalf("LoadMetadata error %v, want ErrBadHeader naming future.mseed and offset 512", err)
	}
	if n := store.Snapshot().Rows(catalog.TableRecords); n != 0 {
		t.Errorf("a failed load installed %d records", n)
	}
}

// TestConvertFastPathMatchesGeneralLoop holds convert's two loops to each
// other and to catalog.CollectZone, bit for bit: wherever the gain-only loop
// applies (a finite positive gain, no clip) it writes the values and returns
// the zone entry the general loop does, for gains that underflow every sample
// to zero or overflow them to ±Inf and for samples at the ends of int32; and
// convert takes it exactly there.
func TestConvertFastPathMatchesGeneralLoop(t *testing.T) {
	gains := []float64{1, 0.5, 3.7, 5e-324, 1e300, 0, -2, math.Inf(1), math.NaN()}
	const fastGains = 5 // the leading gains the gain-only loop serves
	sampleSets := map[string][]int32{
		"empty":     {},
		"one":       {-7},
		"all-equal": {42, 42, 42, 42},
		"extremes":  {3, math.MinInt32, 0, -1, math.MaxInt32, 17},
	}
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	sameZone := func(a, b catalog.ZoneEntry) bool {
		return math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
			a.Finite == b.Finite && a.NaNs == b.NaNs && a.Nulls == b.Nulls && a.Samples == b.Samples
	}
	for g, gain := range gains {
		for _, clip := range []float64{0, 100} {
			if want := g < fastGains && clip == 0; gainOnly(gain, clip) != want {
				t.Errorf("gain %g clip %g: gainOnly = %v, want %v", gain, clip, !want, want)
			}
			for name, samples := range sampleSets {
				general := make([]float64, len(samples))
				gz := convertGeneral(general, samples, gain, clip)
				if cz := catalog.CollectZone(general); !sameZone(gz, cz) {
					t.Errorf("gain %g clip %g %s: general loop's zone %+v, CollectZone says %+v", gain, clip, name, gz, cz)
				}
				e := &Engine{opts: Options{Gain: gain, ClipAbs: clip}}
				got := make([]float64, len(samples))
				if z := e.convert(got, samples); !sameZone(z, gz) || !reflect.DeepEqual(bits(got), bits(general)) {
					t.Errorf("gain %g clip %g %s: convert wrote %v with zone %+v, the general loop %v with %+v", gain, clip, name, got, z, general, gz)
				}
				if !gainOnly(gain, clip) {
					continue
				}
				fast := make([]float64, len(samples))
				if z := convertGain(fast, samples, gain); !sameZone(z, gz) || !reflect.DeepEqual(bits(fast), bits(general)) {
					t.Errorf("gain %g %s: gain-only loop wrote %v with zone %+v, the general loop %v with %+v", gain, name, fast, z, general, gz)
				}
			}
		}
	}
}

// TestScanFilePanicContainment: a header scan that panics fails the load
// naming its file, with the *exec.PanicError; when several do, the lowest
// file index is the one reported, as for scan errors. A failed load
// commits nothing, and the next one loads. Every file is touched after the
// first load, so every later load scans it again.
func TestScanFilePanicContainment(t *testing.T) {
	defer func() { scanFileHook = func(int) {} }()
	e, store, _ := newEngine(t, 500, Options{})
	st, err := e.LoadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	files := listed(t, e)
	for _, f := range files {
		if err := repo.Touch(f.AbsPath, f.ModTime.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]int{{4}, {9, 2, 6}} {
		lowest := slices.Min(bad)
		scanFileHook = func(x int) {
			if slices.Contains(bad, x) {
				panic(fmt.Sprintf("scan boom %d", x))
			}
		}
		for name, load := range map[string]func() (Stats, error){"LoadMetadata": e.LoadMetadata, "LoadAll": e.LoadAll} {
			_, err := load()
			var pe *exec.PanicError
			if uri := files[lowest].URI; !errors.As(err, &pe) || pe.Value != fmt.Sprintf("scan boom %d", lowest) || !strings.Contains(err.Error(), uri) {
				t.Errorf("%s with files %v panicking: want file %d's PanicError naming %s, got %v", name, bad, lowest, uri, err)
			}
			if store.Snapshot().Rows(catalog.TableRecords) != st.Records || store.Snapshot().Rows(catalog.TableData) != 0 {
				t.Errorf("%s: a failed load committed", name)
			}
		}
	}
	scanFileHook = func(int) {}
	if _, err := e.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if store.Snapshot().Rows(catalog.TableData) != 15*500 {
		t.Errorf("data rows = %d after the panics, want %d", store.Snapshot().Rows(catalog.TableData), 15*500)
	}
}

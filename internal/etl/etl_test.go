package etl

import (
	"os"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
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
	if store.Rows(catalog.TableFiles) != 15 {
		t.Errorf("files rows = %d", store.Rows(catalog.TableFiles))
	}
	if store.Rows(catalog.TableRecords) != st.Records {
		t.Errorf("records rows = %d, want %d", store.Rows(catalog.TableRecords), st.Records)
	}
	if store.Rows(catalog.TableData) != 0 {
		t.Errorf("data rows = %d, want 0", store.Rows(catalog.TableData))
	}
	metaBytes := st.BytesRead

	st2, err := e.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(store.Rows(catalog.TableData)) != st2.Samples {
		t.Errorf("data rows = %d, want %d", store.Rows(catalog.TableData), st2.Samples)
	}
	if st2.Samples != int64(15*2000) {
		t.Errorf("samples = %d, want %d", st2.Samples, 15*2000)
	}
	if st2.BytesRead <= metaBytes*2 {
		t.Errorf("eager read %d bytes vs metadata %d; expected much more", st2.BytesRead, metaBytes)
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
	return plan.Execute(plans.Root, &plan.Env{Store: store, Source: e})
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

func TestRefreshMetadataDropsRemovedFiles(t *testing.T) {
	e, store, dir := newEngine(t, 400, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	before := store.Rows(catalog.TableFiles)

	// Warm the cache, then remove one file.
	runLazyQuery(t, e, store, `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'WIT'`)
	var victim string
	for _, f := range e.Repository().Files {
		if strings.Contains(f.URI, "WIT") {
			victim = f.AbsPath
			break
		}
	}
	if victim == "" {
		t.Fatal("no WIT file")
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefreshMetadata(); err != nil {
		t.Fatal(err)
	}
	if got := store.Rows(catalog.TableFiles); got != before-1 {
		t.Errorf("files after refresh = %d, want %d", got, before-1)
	}
	_ = dir
}

func TestDisableCache(t *testing.T) {
	e, store, _ := newEngine(t, 500, Options{DisableCache: true})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'DBN' AND F.channel = 'BHN'`
	runLazyQuery(t, e, store, q)
	first := e.ExtractionStats().Extractions
	runLazyQuery(t, e, store, q)
	second := e.ExtractionStats().Extractions
	if second != 2*first || first == 0 {
		t.Errorf("extractions %d then %d; cache should be disabled", first, second)
	}
	if e.Cache().Len() != 0 {
		t.Error("disabled cache holds entries")
	}
}

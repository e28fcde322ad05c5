package etl

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
)

// benchEngine builds an engine over a generated repository and returns it
// with the extraction-metadata batch (F.* and R.* columns) covering every
// record — what the planner's metadata phase hands to Extract for an
// unfiltered query.
func benchEngine(b *testing.B, opts Options) (*Engine, *column.Batch) {
	b.Helper()
	dir := b.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, SamplesPerDay: 20000, Seed: 21}); err != nil {
		b.Fatal(err)
	}
	rp, err := repo.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	store := catalog.NewStore(catalog.MSEED())
	e := New(rp, store, opts)
	if _, err := e.LoadMetadata(); err != nil {
		b.Fatal(err)
	}

	fb, err := store.Table(catalog.TableFiles)
	if err != nil {
		b.Fatal(err)
	}
	fids, _ := fb.Col("file_id")
	furis, _ := fb.Col("uri")
	flens, _ := fb.Col("record_length")
	uriByID := make(map[int64]string)
	lenByID := make(map[int64]int64)
	for i := 0; i < fb.NumRows(); i++ {
		uriByID[fids.Int64s()[i]] = furis.Strings()[i]
		lenByID[fids.Int64s()[i]] = flens.Int64s()[i]
	}
	rb, err := store.Table(catalog.TableRecords)
	if err != nil {
		b.Fatal(err)
	}
	rids, _ := rb.Col("file_id")
	seqs, _ := rb.Col("seqno")
	offs, _ := rb.Col("file_offset")
	nums, _ := rb.Col("num_samples")
	n := rb.NumRows()
	uris := make([]string, n)
	recLens := make([]int64, n)
	for i := 0; i < n; i++ {
		uris[i] = uriByID[rids.Int64s()[i]]
		recLens[i] = lenByID[rids.Int64s()[i]]
	}
	meta := column.MustNewBatch(
		column.NewStrings("F.uri", uris),
		column.NewInt64s("F.record_length", recLens),
		column.NewInt64s("R.seqno", append([]int64(nil), seqs.Int64s()...)),
		column.NewInt64s("R.file_offset", append([]int64(nil), offs.Int64s()...)),
		column.NewInt64s("R.num_samples", append([]int64(nil), nums.Int64s()...)),
	)
	return e, meta
}

// BenchmarkExtractColdCache measures the run-coalesced miss path: with the
// cache disabled every iteration re-extracts all records of all files, so
// allocs/op exposes the O(1)-per-run allocation behaviour and ns/op the
// syscall coalescing.
func BenchmarkExtractColdCache(b *testing.B) {
	e, meta := benchEngine(b, Options{DisableCache: true})
	var samples int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Extract(meta, nil, plan.NopObserver{})
		if err != nil {
			b.Fatal(err)
		}
		samples = int64(out.NumRows())
	}
	b.SetBytes(samples * 16) // one int64 time + one float64 value per row
	st := e.ExtractionStats()
	if st.RunsRead == 0 {
		b.Fatal("no coalesced runs recorded")
	}
	b.ReportMetric(float64(st.RunRecords)/float64(st.RunsRead), "records/run")
}

// BenchmarkExtractWarmCache measures the pure recycler-hit path: one cold
// warming pass, then every iteration serves all records from the cache.
func BenchmarkExtractWarmCache(b *testing.B) {
	e, meta := benchEngine(b, Options{})
	if _, err := e.Extract(meta, nil, plan.NopObserver{}); err != nil {
		b.Fatal(err)
	}
	cold := e.ExtractionStats().Extractions
	var samples int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Extract(meta, nil, plan.NopObserver{})
		if err != nil {
			b.Fatal(err)
		}
		samples = int64(out.NumRows())
	}
	b.StopTimer()
	b.SetBytes(samples * 16)
	if got := e.ExtractionStats().Extractions; got != cold {
		b.Fatalf("warm iterations extracted: %d -> %d", cold, got)
	}
}

// BenchmarkExtractStream times the extraction stream itself — what a served
// query consumes — not the Extract reference wrapper, which also expands
// every column: all records of the fixture, morsel by morsel at the default
// size and a two-worker pool's width, carrying F.station beside
// D.sample_value (a Figure-1 Q2's columns) or beside both D.* columns. cold
// runs with the recycler off, so every pass reads and decodes; warm serves
// every record from it. B/op is the point: cold values allocates the value
// buffers (8 B a sample) and views them, values+times adds the generated
// times (8 more), and warm values allocates no sample vector at all.
func BenchmarkExtractStream(b *testing.B) {
	for _, c := range []struct {
		name string
		cols []string
	}{
		{"values", []string{"F.station", "D.sample_value"}},
		{"values+times", []string{"F.station", "D.sample_time", "D.sample_value"}},
	} {
		for _, state := range []string{"cold", "warm"} {
			b.Run(c.name+"/"+state, func(b *testing.B) {
				e, _ := benchEngine(b, Options{DisableCache: state == "cold"})
				meta := dataviewMeta(b, e.store, `SELECT * FROM mseed.dataview`)
				// The first pass fills the recycler (warm) and the pooled scratch.
				samples := countStream(b, e, meta, c.cols)
				b.ReportAllocs()
				b.SetBytes(int64(samples) * 8 * int64(len(c.cols)-1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					countStream(b, e, meta, c.cols)
				}
			})
		}
	}
}

// fleetEngine builds an engine over the serving benchmark's fleet shape: 9
// stations × 3 channels × 2 days = 54 files of 80,000 samples, about 155
// Steim2 records of 512 bytes each.
func fleetEngine(b *testing.B) *Engine {
	b.Helper()
	dir := b.TempDir()
	stations := append([]seisgen.Station{
		{Network: "NL", Code: "OPLO"}, {Network: "NL", Code: "WTSB"},
		{Network: "NL", Code: "VKB"}, {Network: "NL", Code: "HRKB"},
	}, seisgen.DefaultStations...)
	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir: dir, Stations: stations, Days: 2, SamplesPerDay: 80000, EventsPerDay: 2, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	rp, err := repo.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	return New(rp, catalog.NewStore(catalog.MSEED()), Options{})
}

// BenchmarkLoadMetadata times the lazy load over the serving fleet. first
// is the initial load — a fresh store each iteration, so every file is
// header-scanned — which a cold start pays before its first answer.
// reload/unchanged is a Refresh that finds nothing changed: the walk and the
// merge, no scan and no publication. reload/touched=1 is one after a file's
// mtime moved: that file scanned, every other file's rows carried, and the
// tables published. records/op turns allocs/op into allocations per record.
func BenchmarkLoadMetadata(b *testing.B) {
	e := fleetEngine(b)
	load := func(b *testing.B, e *Engine) {
		st, err := e.LoadMetadata()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Records), "records/op")
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			load(b, New(&repo.Repository{Root: e.root}, catalog.NewStore(e.store.Catalog()), Options{}))
		}
	})
	load(b, e)
	b.Run("reload", func(b *testing.B) {
		b.Run("unchanged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				load(b, e)
			}
		})
		files, touches := listed(b, e), 0
		b.Run("touched=1", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				touches++ // every touch a new mtime, across the benchmark's rounds
				f := files[touches%len(files)]
				if err := repo.Touch(f.AbsPath, f.ModTime.Add(time.Duration(touches)*time.Millisecond)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				load(b, e)
			}
		})
	})
}

var convertSink catalog.ZoneEntry

// BenchmarkConvert times the value pass over one record's worth of decoded
// samples, L1-resident as the extraction's scratch is: fast is the default
// transform (gain 1, no clip), general any other — here a clip no sample
// reaches, so both write the same values.
func BenchmarkConvert(b *testing.B) {
	samples := make([]int32, 516)
	for i := range samples {
		samples[i] = int32(i*7919%20011 - 10000)
	}
	dst := make([]float64, len(samples))
	for _, c := range []struct {
		name string
		opts Options
	}{{"fast", Options{Gain: 1}}, {"general", Options{Gain: 1, ClipAbs: 1e12}}} {
		b.Run(c.name, func(b *testing.B) {
			e := &Engine{opts: c.opts}
			b.SetBytes(int64(len(samples)) * 8)
			for i := 0; i < b.N; i++ {
				convertSink = e.convert(dst, samples)
			}
		})
	}
}

package lazyetl_test

// Benchmarks regenerating the paper's evaluation, one benchmark family per
// experiment (E1..E9, indexed in internal/experiments). `go test -bench=.
// -benchmem` runs them all; cmd/experiments prints the corresponding
// human-readable tables, and benchmark/README.md describes the end-to-end
// serving benchmark.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	lazyetl "repro"
	"repro/internal/etl"
	"repro/internal/exec"
	"repro/internal/repo"
)

// sharedRepos caches generated repositories across benchmarks (generation
// itself is benchmarked separately in the seisgen package).
var (
	repoMu    sync.Mutex
	repoCache = map[string]string{}
)

func benchRepo(b *testing.B, key string, cfg lazyetl.RepoConfig) string {
	b.Helper()
	repoMu.Lock()
	defer repoMu.Unlock()
	if dir, ok := repoCache[key]; ok {
		return dir
	}
	dir, err := os.MkdirTemp("", "lazyetl-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Dir = dir
	if cfg.Seed == 0 {
		cfg.Seed = 1234
	}
	if _, err := lazyetl.GenerateRepository(cfg); err != nil {
		b.Fatal(err)
	}
	repoCache[key] = dir
	return dir
}

func openBench(b *testing.B, dir string, mode lazyetl.Mode, opts etl.Options) *lazyetl.Warehouse {
	b.Helper()
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: mode, ETL: opts})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func mustQuery(b *testing.B, w *lazyetl.Warehouse, q string) *lazyetl.Result {
	b.Helper()
	res, err := w.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// mustQueryUncached executes q without the result cache, for the rows that
// measure extraction, the recycler or the pipeline: a repeated Query is
// answered by the result cache before any of them runs.
func mustQueryUncached(b *testing.B, w *lazyetl.Warehouse, q string) *lazyetl.Result {
	b.Helper()
	res, err := w.QueryUncached(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

const benchQuery = `SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ' GROUP BY F.station`

// BenchmarkE1_TimeToFirstAnswer measures initial load + first query, per
// mode and repository size (experiment E1 / demo point 3).
func BenchmarkE1_TimeToFirstAnswer(b *testing.B) {
	for _, days := range []int{1, 2, 4} {
		dir := benchRepo(b, fmt.Sprintf("d%d", days), lazyetl.RepoConfig{Days: days, SamplesPerDay: 20000})
		b.Run(fmt.Sprintf("files=%d/eager", 15*days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := openBench(b, dir, lazyetl.Eager, etl.Options{})
				mustQuery(b, w, benchQuery)
			}
		})
		b.Run(fmt.Sprintf("files=%d/lazy", 15*days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
				mustQuery(b, w, benchQuery)
			}
		})
	}
}

// BenchmarkE2_InitialLoad isolates the initial load (experiment E2).
func BenchmarkE2_InitialLoad(b *testing.B) {
	for _, days := range []int{1, 4} {
		dir := benchRepo(b, fmt.Sprintf("d%d", days), lazyetl.RepoConfig{Days: days, SamplesPerDay: 20000})
		b.Run(fmt.Sprintf("files=%d/eager", 15*days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				openBench(b, dir, lazyetl.Eager, etl.Options{})
			}
		})
		b.Run(fmt.Sprintf("files=%d/lazy", 15*days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				openBench(b, dir, lazyetl.Lazy, etl.Options{})
			}
		})
	}
}

// BenchmarkE3_StorageFootprint reports bytes (not time): repository size,
// eager store size, and lazy store size as benchmark metrics (experiment E3).
func BenchmarkE3_StorageFootprint(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	b.Run("footprints", func(b *testing.B) {
		var repoBytes, eagerBytes, lazyBytes int64
		for i := 0; i < b.N; i++ {
			ew := openBench(b, dir, lazyetl.Eager, etl.Options{})
			lw := openBench(b, dir, lazyetl.Lazy, etl.Options{})
			repoBytes = ew.InitStats().RepoBytes
			eagerBytes = ew.Stats().StoreBytes
			lazyBytes = lw.Stats().StoreBytes
		}
		b.ReportMetric(float64(repoBytes), "repo-bytes")
		b.ReportMetric(float64(eagerBytes), "eager-store-bytes")
		b.ReportMetric(float64(lazyBytes), "lazy-store-bytes")
		b.ReportMetric(float64(eagerBytes)/float64(repoBytes), "blowup-x")
	})
}

// BenchmarkE4_CacheWarmup measures the same query cold (first run extracts)
// vs warm (recycler hits) vs with the recycler off (experiment E4). The
// repeated runs bypass the result cache, which would answer them before the
// recycler is consulted.
func BenchmarkE4_CacheWarmup(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
			mustQuery(b, w, benchQuery)
		}
	})
	b.Run("warm", func(b *testing.B) {
		w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
		mustQuery(b, w, benchQuery)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQueryUncached(b, w, benchQuery)
		}
	})
	b.Run("nocache", func(b *testing.B) {
		w := openBench(b, dir, lazyetl.Lazy, etl.Options{DisableCache: true})
		mustQuery(b, w, benchQuery)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQueryUncached(b, w, benchQuery)
		}
	})
}

// BenchmarkE4_Granularity compares per-record extraction against whole-file
// prefetch on a narrow query (the granularity ablation).
func BenchmarkE4_Granularity(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	narrow := `SELECT COUNT(*) FROM mseed.dataview
		WHERE F.station = 'ISK' AND F.channel = 'BHE' AND R.seqno = 1`
	for _, pre := range []bool{false, true} {
		name := "per-record"
		if pre {
			name = "whole-file"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := openBench(b, dir, lazyetl.Lazy, etl.Options{PrefetchWholeFile: pre})
				mustQuery(b, w, narrow)
			}
		})
	}
}

// BenchmarkE5_Selectivity sweeps the fraction of files a query touches
// (experiment E5): lazy cold-query time grows with the working set.
func BenchmarkE5_Selectivity(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	queries := []struct {
		name string
		q    string
	}{
		{"files=1", `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE' AND F.start_time < '2010-01-13'`},
		{"files=2", `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`},
		{"files=10", `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`},
		{"files=30", `SELECT COUNT(*) FROM mseed.dataview`},
	}
	for _, q := range queries {
		b.Run("lazy/"+q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
				mustQuery(b, w, q.q)
			}
		})
	}
	b.Run("eager/load+query-files=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.Eager, etl.Options{})
			mustQuery(b, w, queries[0].q)
		}
	})
}

// BenchmarkE6_Refresh measures refresh after updates (experiment E6): the
// lazy warehouse re-extracts stale records at the next query; the eager
// warehouse, once one file is touched, re-runs its full extraction.
func BenchmarkE6_Refresh(b *testing.B) {
	scan := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`
	b.Run("lazy/requery-after-1-update", func(b *testing.B) {
		dir := benchRepo(b, "e6", lazyetl.RepoConfig{Days: 1, SamplesPerDay: 20000})
		w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
		mustQuery(b, w, scan)
		rp, err := repo.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		victim := rp.Files[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			touchFuture(b, victim.AbsPath)
			b.StartTimer()
			mustQuery(b, w, scan)
		}
	})
	b.Run("eager/full-reload", func(b *testing.B) {
		dir := benchRepo(b, "e6", lazyetl.RepoConfig{Days: 1, SamplesPerDay: 20000})
		w := openBench(b, dir, lazyetl.Eager, etl.Options{})
		rp, err := repo.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			touchFuture(b, rp.Files[0].AbsPath)
			b.StartTimer()
			if _, err := w.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7_Figure1 runs the two verbatim paper queries against a warm
// lazy warehouse (experiment E7): recycler-warm, never answered from the
// result cache.
func BenchmarkE7_Figure1(b *testing.B) {
	dir := benchRepo(b, "fullday", lazyetl.RepoConfig{
		SampleRate: 1, SamplesPerDay: 24 * 3600, EventsPerDay: 2,
	})
	w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
	b.Run("Q1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustQueryUncached(b, w, lazyetl.Figure1Q1)
		}
	})
	b.Run("Q2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustQueryUncached(b, w, lazyetl.Figure1Q2)
		}
	})
}

// BenchmarkE8_EventHunt measures the full STA/LTA pipeline: range query out
// of the lazy warehouse plus detection (experiment E8), the query executed
// every time rather than answered from the result cache.
func BenchmarkE8_EventHunt(b *testing.B) {
	dir := benchRepo(b, "fullday", lazyetl.RepoConfig{
		SampleRate: 1, SamplesPerDay: 24 * 3600, EventsPerDay: 2,
	})
	w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.station = 'HGN' AND F.channel = 'BHZ' ORDER BY D.sample_time`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustQueryUncached(b, w, q)
		times, _ := res.Batch.Col("D.sample_time")
		values, _ := res.Batch.Col("D.sample_value")
		if _, err := lazyetl.DetectEvents(times.Int64s(), values.Float64s(), lazyetl.EventConfig{
			SampleRate: 1, STAWindow: 80e9, LTAWindow: 600e9, TriggerOn: 6,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_ExternalBaseline compares lazy against the external-table
// baseline on a selective query (experiment E9): the baseline extracts all
// files every time.
func BenchmarkE9_ExternalBaseline(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
			mustQuery(b, w, q)
		}
	})
	b.Run("external", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.External, etl.Options{})
			mustQuery(b, w, q)
		}
	})
}

// BenchmarkParallelExtraction measures the worker-pool extension: the same
// cold full-scan query on a pool of 1, 2, 4 and 8 workers, which is also
// what sizes the extraction stream's read-ahead (workers-1, at least one).
func BenchmarkParallelExtraction(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				mustQuery(b, w, q)
			}
		})
	}
}

// BenchmarkDerivedPruning measures the automatic record-pruning extension:
// Figure 1 Q1 without its explicit R.start_time predicates, with pruning
// derived from D.sample_time vs the full file extracted.
func BenchmarkDerivedPruning(b *testing.B) {
	dir := benchRepo(b, "fullday", lazyetl.RepoConfig{
		SampleRate: 1, SamplesPerDay: 24 * 3600, EventsPerDay: 2,
	})
	pruned := `SELECT AVG(D.sample_value) FROM mseed.dataview
		WHERE F.station = 'ISK' AND F.channel = 'BHE'
		AND D.sample_time > '2010-01-12T22:15:00.000'
		AND D.sample_time < '2010-01-12T22:15:02.000'`
	unprunable := `SELECT AVG(D.sample_value) FROM mseed.dataview
		WHERE F.station = 'ISK' AND F.channel = 'BHE'`
	b.Run("window-with-derived-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
			mustQuery(b, w, pruned)
		}
	})
	b.Run("whole-file-no-window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := openBench(b, dir, lazyetl.Lazy, etl.Options{})
			mustQuery(b, w, unprunable)
		}
	})
}

// BenchmarkExtractOverlap measures the push pipeline end to end: a ~1M-row
// cold scan where run N+1 is read and Steim-decoded by prefetch workers
// while run N's morsels flow through the pipeline, against the serial
// operator-at-a-time reference (package reference, over the same warehouse)
// that extracts everything before computing. The warm variant isolates the
// pipeline itself (pure recycler reads, no extraction; never the result
// cache): its ungrouped statement wraps the value conjunct in an OR, which
// keeps the zone maps from answering any record, and warm/zone-answered
// runs the statement as written, every record of which the zone maps then
// answer. The grouped cases run the Figure-1 Q2 shape with and without the
// production memory budget: the budget must not change which engine runs
// the query, so the two should cost the same.
func BenchmarkExtractOverlap(b *testing.B) {
	dir := benchRepo(b, "overlap", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 35000})
	q := `SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE D.sample_value > -100000`
	recycled := `SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE (D.sample_value > -100000 OR 1 = 0)`
	grouped := `SELECT F.station, COUNT(*), AVG(D.sample_value) FROM mseed.dataview
		WHERE D.sample_value > -100000 GROUP BY F.station`
	cases := []struct {
		name      string
		pipelined bool
		budget    int64
		q         string
	}{
		{"materialize", false, 0, q},
		{"pipeline", true, 0, recycled},
		{"pipeline/grouped", true, 0, grouped},
		{"pipeline/grouped/budget=512MiB", true, 512 << 20, grouped},
	}
	for _, c := range cases {
		open := func() *lazyetl.Warehouse {
			w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy, Workers: 4, MemoryBudget: c.budget})
			if err != nil {
				b.Fatal(err)
			}
			return w
		}
		run := func(w *lazyetl.Warehouse) {
			if c.pipelined {
				mustQueryUncached(b, w, c.q)
			} else if _, err := referenceQuery(w, c.q, exec.NewPool(4)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run("cold/"+c.name, func(b *testing.B) {
			var prefetched int64
			for i := 0; i < b.N; i++ {
				w := open()
				run(w)
				prefetched = w.Stats().Extraction.PrefetchedRuns
			}
			if c.pipelined {
				b.ReportMetric(float64(prefetched), "prefetched-runs")
			}
		})
		b.Run("warm/"+c.name, func(b *testing.B) {
			w := open()
			run(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(w)
			}
		})
	}
	b.Run("warm/zone-answered", func(b *testing.B) {
		w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		mustQueryUncached(b, w, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQueryUncached(b, w, q)
		}
		b.StopTimer()
		if st := w.Stats().Extraction; st.RecordsAnswered == 0 {
			b.Fatalf("no record answered from zones: %+v", st)
		}
	})
}

// BenchmarkConcurrentQueries measures query throughput with many clients on
// one warm warehouse: the concurrent path (per-query snapshots + admission
// control) against MaxConcurrentQueries: 1, which admits one query at a
// time the way the pre-concurrency warehouse did. Workers=1 keeps each
// query serial so the speedup isolates inter-query concurrency rather than
// intra-query parallelism. Every query executes on the warm recycler; none
// is answered from the result cache.
func BenchmarkConcurrentQueries(b *testing.B) {
	dir := benchRepo(b, "d2", lazyetl.RepoConfig{Days: 2, SamplesPerDay: 20000})
	queries := []string{
		benchQuery,
		`SELECT COUNT(*) FROM mseed.records WHERE sample_rate >= 40`,
		`SELECT network, COUNT(*) FROM mseed.files GROUP BY network ORDER BY network`,
		`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`,
	}
	for _, slots := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "concurrent"
		if slots == 1 {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			w, err := lazyetl.Open(dir, lazyetl.Options{
				Mode: lazyetl.Lazy, Workers: 1, MaxConcurrentQueries: slots,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range queries {
				mustQuery(b, w, q) // warm the recycler cache
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					mustQueryPB(b, w, queries[i%len(queries)])
					i++
				}
			})
		})
	}
}

// mustQueryPB executes q, bypassing the result cache, from a RunParallel
// body (where Fatal is not allowed).
func mustQueryPB(b *testing.B, w *lazyetl.Warehouse, q string) {
	if _, err := w.QueryUncached(context.Background(), q); err != nil {
		b.Error(err)
	}
}

func touchFuture(b *testing.B, path string) {
	b.Helper()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	at := st.ModTime().Add(1e9)
	if err := os.Chtimes(path, at, at); err != nil {
		b.Fatal(err)
	}
}

package warehouse

import (
	"testing"
)

// BenchmarkColdScanSkip measures skip-before-decode pruning on a cold
// recycler cache: zone maps (which live on the catalog store, not in the
// cache) are collected by one warm-up query, then every iteration clears
// the cache and re-runs the query. The skip variant must answer without
// re-reading pruned runs; the noSkipping oracle re-extracts everything.
// Compare the two sub-benchmarks' ns/op and runs-read/op.
func BenchmarkColdScanSkip(b *testing.B) {
	const q = `SELECT COUNT(*) FROM mseed.dataview
	 WHERE F.station = 'ISK' AND D.sample_value > 1000000000`
	run := func(b *testing.B, o oracle) {
		dir := genFullDayRepo(b)
		w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache|o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Query(q); err != nil { // collect zones (skip variant)
			b.Fatal(err)
		}
		runs0 := w.Stats().Extraction.RunsRead
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			forgetExtractions(w, false)
			b.StartTimer()
			res, err := w.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Batch.Row(0)[0].I != 0 {
				b.Fatalf("count = %d, want 0 (threshold above every amplitude)", res.Batch.Row(0)[0].I)
			}
		}
		b.StopTimer()
		st := w.Stats().Extraction
		read := st.RunsRead - runs0
		b.ReportMetric(float64(read)/float64(b.N), "runs-read/op")
		if o != 0 {
			if read == 0 {
				b.Fatal("oracle read no runs despite cleared cache")
			}
		} else {
			if read != 0 {
				b.Fatalf("skip variant read %d runs; zone maps should prune every record", read)
			}
			if st.RecordsSkipped == 0 {
				b.Fatal("skip variant pruned no records")
			}
		}
	}
	b.Run("skip", func(b *testing.B) { run(b, 0) })
	b.Run("oracle", func(b *testing.B) { run(b, noSkipping) })
}

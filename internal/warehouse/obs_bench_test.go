package warehouse

import "testing"

// BenchmarkTraceOverhead measures what span collection costs on the full
// serve path. Both variants disable the query cache so every iteration
// pays parse -> plan -> execute -> emit; the only difference is
// the noTrace oracle. The traced/notrace delta is the tracing tax the issue
// bounds at 2%.
func BenchmarkTraceOverhead(b *testing.B) {
	const q = `SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.network = 'NL' AND D.sample_value > 500 GROUP BY F.station`
	run := func(b *testing.B, o oracle) {
		dir := genRepo(b, 1500)
		w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache|o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Query(q); err != nil { // warm the recycler cache
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("traced", func(b *testing.B) { run(b, 0) })
	b.Run("notrace", func(b *testing.B) { run(b, noTrace) })
}

// BenchmarkMetricsScrape measures a GET /metrics render into a reused
// buffer: at steady state a scrape performs zero allocations.
func BenchmarkMetricsScrape(b *testing.B) {
	dir := genRepo(b, 1500)
	w, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Query(q2); err != nil { // populate counters
		b.Fatal(err)
	}
	buf := w.AppendMetrics(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = w.AppendMetrics(buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("empty scrape")
	}
}

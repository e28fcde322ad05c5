package warehouse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/seisgen"
)

// BenchmarkPreparedQuery isolates the parse cost the statement cache
// removes. The cold variant parses the raw text on every iteration
// (noQueryCache); the prepared variant binds the statement it parsed once.
// Both then build and render the plan, and neither executes — Explain stops
// at the built plan — so the delta is the parse alone.
func BenchmarkPreparedQuery(b *testing.B) {
	const q = `SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.network = 'NL' AND D.sample_value > 500 GROUP BY F.station`
	b.Run("cold", func(b *testing.B) {
		dir := genRepo(b, 1500)
		w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		dir := genRepo(b, 1500)
		w, err := Open(dir, Options{Mode: Lazy})
		if err != nil {
			b.Fatal(err)
		}
		ps, err := w.Prepare(`SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.network = ? AND D.sample_value > ? GROUP BY F.station`)
		if err != nil {
			b.Fatal(err)
		}
		params := []column.Value{column.NewString("NL"), column.NewInt64(500)}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Explain(params...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultCacheHit measures the full serve path of a repeated
// query: after one warm execution, every iteration is answered from the
// result cache (key build, stamp re-validation stats, LRU bump) without
// entering the execution pool. The miss variant re-executes each time.
func BenchmarkResultCacheHit(b *testing.B) {
	const q = `SELECT F.station, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.station`
	b.Run("hit", func(b *testing.B) {
		dir := genRepo(b, 1500)
		w, err := Open(dir, Options{Mode: Lazy})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Query(q); err != nil { // compute and admit
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := w.Stats().QueryCache
		if st.ResultHits < int64(b.N) {
			b.Fatalf("only %d/%d iterations hit the cache", st.ResultHits, b.N)
		}
	})
	b.Run("miss", func(b *testing.B) {
		dir := genRepo(b, 1500)
		w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
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
	})
}

// BenchmarkPreparedExecute is the end-to-end prepared-statement path with
// varying parameters: three distinct values cycling, so every execution
// after the first three is a result-cache hit of the one statement.
func BenchmarkPreparedExecute(b *testing.B) {
	dir := genRepo(b, 1500)
	w, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := w.Prepare(`SELECT COUNT(*) FROM mseed.dataview WHERE F.station = ?`)
	if err != nil {
		b.Fatal(err)
	}
	stations := []string{"ISK", "HGN", "DBN"}
	for _, s := range stations {
		if _, err := ps.Execute(column.NewString(s)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Execute(column.NewString(stations[i%len(stations)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneOffQueries serves the warm windowed-aggregate shape (the
// cold_scan statement over a recycler that holds the whole fleet) with both
// query-cache tiers on and a window no earlier iteration asked for, so every
// answer is a one-off, served through the one statement of its shape.
// Besides time and allocations it reports GC cycles per query (gc/op), the
// runtime's estimate of GC CPU time per query (gc-cpu-ns/op: fewer cycles
// over a bigger heap can cost more), and the heap still live after a final
// GC (live-B): the answers the result cache retains, which admission on
// probation bounds at a quarter of its budget.
func BenchmarkOneOffQueries(b *testing.B) {
	const width = 500 * time.Second
	dir := genRepo(b, 80000)
	stations := seisgen.DefaultStations
	channels := []string{"BHZ", "BHN", "BHE"}
	day := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	starts := int64((80000*time.Second/40 - width) / time.Millisecond)
	w, err := Open(dir, Options{Mode: Lazy})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.QueryUncached(context.Background(), `SELECT COUNT(*) FROM mseed.dataview`); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gcCPU)
	gc0, gcSec0 := ms.NumGC, gcCPU[0].Value.Float64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// i*7919 mod starts visits every start once (7919 is prime and
		// does not divide starts) before any window repeats.
		t0 := day.Add(time.Duration(int64(i)*7919%starts) * time.Millisecond)
		q := fmt.Sprintf(`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
			WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
			stations[i%len(stations)].Code, channels[i/len(stations)%len(channels)],
			t0.Format("2006-01-02T15:04:05.000"), t0.Add(width).Format("2006-01-02T15:04:05.000"))
		if _, err := w.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	metrics.Read(gcCPU)
	b.ReportMetric((gcCPU[0].Value.Float64()-gcSec0)*1e9/float64(b.N), "gc-cpu-ns/op")
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-gc0-1)/float64(b.N), "gc/op")
	b.ReportMetric(float64(ms.HeapAlloc), "live-B")
	if st := w.Stats().QueryCache; st.ResultHits != 0 {
		b.Fatalf("a one-off hit the result cache: %+v", st)
	}
}

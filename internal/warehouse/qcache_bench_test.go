package warehouse

import (
	"testing"

	"repro/internal/column"
)

// BenchmarkPreparedQuery isolates the parse -> plan -> reorder cost the
// plan cache removes. The cold variant pays it on every iteration
// (NoQueryCache); the prepared variant resolves the same statement through
// the plan cache. Neither executes — Explain stops at the built plan — so
// the delta is pure preparation work.
func BenchmarkPreparedQuery(b *testing.B) {
	const q = `SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
	 FROM mseed.dataview WHERE F.network = 'NL' AND D.sample_value > 500 GROUP BY F.station`
	b.Run("cold", func(b *testing.B) {
		dir := genRepo(b, 1500)
		w, err := Open(dir, Options{Mode: Lazy, Oracle: NoQueryCache})
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
		if _, err := ps.Explain(params...); err != nil { // build and cache the plan
			b.Fatal(err)
		}
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
		w, err := Open(dir, Options{Mode: Lazy, Oracle: NoQueryCache})
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
// varying parameters: plan-cache hits per distinct value, result-cache
// hits on repeats.
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

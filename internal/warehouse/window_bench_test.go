package warehouse

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/seisgen"
)

// BenchmarkWindowedAgg is the served cold_scan statement — AVG/MIN/MAX and
// COUNT of one series over a 500 s window (20,000 samples at 40 Hz), the
// paper's Figure-1 Q1 — over a fleet of 15 series of 80,000 samples, each
// iteration a new seeded series and ms-granular window, the result cache
// off. cold drops the recycler's and the zone maps' entries before every
// query, so each one reads and decodes its records; warm runs over a
// recycler that holds the whole fleet and zones for every record, so it
// takes all but the edge records of its window from their zones.
// The sample window cuts the D.sample_time predicates at the record edges,
// so B/op counts no timestamp vector and no selection vectors.
func BenchmarkWindowedAgg(b *testing.B) {
	const width = 500 * time.Second
	dir := genRepo(b, 80000)
	stations := seisgen.DefaultStations
	channels := []string{"BHZ", "BHN", "BHE"}
	day := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	span := 80000 * time.Second / 40

	for _, warm := range []bool{false, true} {
		b.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(b *testing.B) {
			w, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
			if err != nil {
				b.Fatal(err)
			}
			if warm {
				if _, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview`); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			queries := make([]string, 256)
			for i := range queries {
				t0 := day.Add(time.Duration(rng.Int63n(int64((span-width)/time.Millisecond))) * time.Millisecond)
				queries[i] = fmt.Sprintf(`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
					WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
					stations[rng.Intn(len(stations))].Code, channels[rng.Intn(len(channels))],
					t0.Format("2006-01-02T15:04:05.000"), t0.Add(width).Format("2006-01-02T15:04:05.000"))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					b.StopTimer()
					forgetExtractions(w, true)
					b.StartTimer()
				}
				res, err := w.Query(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				if n := res.Batch.Row(0)[3].I; n != 20000 {
					b.Fatalf("window counts %d samples, want 20000", n)
				}
			}
		})
	}
}

// forgetExtractions drops every recycler entry of w's files and, with
// zones, every zone-map entry too, so the next query extracts cold.
func forgetExtractions(w *Warehouse, zones bool) {
	files, _ := w.store.Snapshot().Table(catalog.TableFiles)
	uris, _ := files.Col("uri")
	for _, uri := range uris.Strings() {
		w.Engine().Cache().InvalidateFile(uri)
		if zones {
			w.store.Zones().InvalidateFile(uri)
		}
	}
}

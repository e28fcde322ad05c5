package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/etl"
	"repro/internal/seisgen"
)

// zoneAnswerShapes are the statements an ungrouped aggregate can answer
// from the zone maps: COUNT(*), and COUNT, MIN, MAX, SUM or AVG of a bare
// D.sample_value, with every data predicate folded into the sample window
// or the zone prune range. sum marks the shapes that need SUM; a <> folds
// but never admits a record wholly, so that shape answers nothing.
var zoneAnswerShapes = []struct {
	q       string
	sum, ne bool
}{
	{q: `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'`},
	{q: `SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
	 WHERE F.station = 'HGN' AND F.channel = 'BHZ' AND D.sample_time >= '2010-01-12 00:00:07.3' AND D.sample_time < '2010-01-12 00:00:52'`, sum: true},
	{q: `SELECT SUM(D.sample_value), COUNT(D.sample_value) FROM mseed.dataview WHERE D.sample_value > -200`, sum: true},
	{q: `SELECT MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview
	 WHERE D.sample_value BETWEEN -3000 AND 3000 AND D.sample_time >= '2010-01-12 00:00:10' AND D.sample_time <= '2010-01-12 00:01:00'`},
	{q: `SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE F.channel = 'BHZ' AND D.sample_value <> 0`, sum: true, ne: true},
}

// TestZoneAnswerOracle runs each zone-answerable shape cold, then warm —
// when the zones collected by the cold run answer the records the
// statement wholly admits — and requires both answers bit-identical to the
// noSkipping oracle, which never consults zones, under gains 1 and 0.5
// (SUM and AVG answered from zones), 0.3 (only COUNT, MIN and MAX) and a
// clip. Each warm extraction splits its qualifying records three ways:
// pruned + answered + decoded (read or recycled) = the cold run's
// qualifying records. A file then rewritten to another size under its old
// mtime must not be answered from the zones of its old content.
func TestZoneAnswerOracle(t *testing.T) {
	configs := []struct {
		name    string
		etl     etl.Options
		sumFrom bool // SUM and AVG are answered from zones
	}{
		{"gain 1", etl.Options{Gain: 1}, true},
		{"gain 0.5", etl.Options{Gain: 0.5}, true},
		{"gain 0.3", etl.Options{Gain: 0.3}, false},
		{"clip", etl.Options{Gain: 1, ClipAbs: 400}, false},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			dir := genRepo(t, 3000)
			opts := Options{Mode: Lazy, ETL: cfg.etl}
			w, err := openOracle(dir, opts, noQueryCache)
			if err != nil {
				t.Fatal(err)
			}
			check := func(phase string) {
				t.Helper()
				ref, err := openOracle(dir, opts, noSkipping|noQueryCache)
				if err != nil {
					t.Fatal(err)
				}
				for i, shape := range zoneAnswerShapes {
					q := shape.q
					want, err := ref.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					var qualifying int64
					for run, temp := range []string{"cold", "warm"} {
						got, err := w.Query(q)
						if err != nil {
							t.Fatal(err)
						}
						if g, e := renderExact(got.Batch), renderExact(want.Batch); g != e {
							t.Errorf("%s, shape %d %s: diverged from the oracle\nwant:\n%s\ngot:\n%s", phase, i, temp, e, g)
						}
						if len(got.Trace.Scans) == 0 {
							continue // no zone test applies: SUM under a gain zones cannot answer
						}
						sc := got.Trace.Scans[0]
						split := sc.RecordsSkipped + sc.RecordsAnswered + sc.Records + sc.CacheReads
						if run == 0 {
							qualifying = split
							continue
						}
						if split != qualifying {
							t.Errorf("%s, shape %d warm: %d pruned + %d answered + %d decoded + %d recycled, want %d qualifying",
								phase, i, sc.RecordsSkipped, sc.RecordsAnswered, sc.Records, sc.CacheReads, qualifying)
						}
						if answers := !shape.ne && (cfg.sumFrom || !shape.sum); answers != (sc.RecordsAnswered > 0) {
							t.Errorf("%s, shape %d warm: %d records answered from zones, want answers = %v", phase, i, sc.RecordsAnswered, answers)
						}
					}
				}
			}
			check("first load")

			// Rewrite one file under its old mtime with another size.
			const uri = "NL/HGN/BHZ/NL.HGN..BHZ.2010.012.mseed"
			other := t.TempDir()
			if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: other, SamplesPerDay: 4000, EventsPerDay: 1, Seed: 43}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, filepath.FromSlash(uri))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(other, filepath.FromSlash(uri)))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) == info.Size() {
				t.Fatalf("setup: the replacement has the original's size, %d bytes", info.Size())
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Refresh(); err != nil {
				t.Fatal(err)
			}
			check("after a same-mtime resize")
		})
	}
}

// TestZoneAnsweredQueryAllocs pins the fixed cost of the statement a
// refreshing reader asks over and over: refresh_mix's ungrouped aggregate
// over one series and a 500 s sample window, with distinct literals so each
// run misses the result cache, on zones an earlier query collected — so
// zones answer all but the window's edge records and what is left is the
// per-query work around them: parse, plan, the metadata subplan, the
// extraction's pass 1 and the answer. It fails above a budget of
// allocations and bytes per query. Machine-independent: it counts, it does
// not time.
func TestZoneAnsweredQueryAllocs(t *testing.T) {
	// While the metadata subplan ran at full width and every query
	// rendered its plan text, the statement took 1,123 allocations and
	// 111,854 bytes; the budgets are 75 % and 65 % of those.
	const maxAllocs, maxBytes = 842, 72_700
	dir := t.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, SamplesPerDay: 80_000, EventsPerDay: 1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{Mode: Lazy, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const series = `F.station = 'HGN' AND F.channel = 'BHZ'`
	if _, err := w.Query(`SELECT COUNT(*) FROM mseed.dataview WHERE ` + series); err != nil {
		t.Fatal(err)
	}
	day := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	n := 0
	query := func() *Result {
		n++
		t0 := day.Add(time.Duration(n) * 700 * time.Millisecond)
		res, err := w.Query(fmt.Sprintf(`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*)
			FROM mseed.dataview WHERE %s AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
			series, t0.Format("2006-01-02 15:04:05.000"), t0.Add(500*time.Second).Format("2006-01-02 15:04:05.000")))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sc := query().Trace.Scans
	if len(sc) != 1 || sc[0].RecordsAnswered < 20 {
		t.Fatalf("setup: the statement is not answered from zones: %+v", sc)
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { query() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if hits := w.Stats().QueryCache.ResultHits; hits != 0 {
		t.Fatalf("%d result-cache hits: the literals repeat", hits)
	}
	t.Logf("%.0f allocations, %.0f bytes per query (%d records answered from zones)", allocs, bytes, sc[0].RecordsAnswered)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("%.0f allocations and %.0f bytes per query, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

package warehouse

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/etl"
	"repro/internal/mseed"
	"repro/internal/seisgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRuntimeOpsGolden pins the run-time rewrite's operators as \trace
// prints them (Trace.RuntimeOps, rendered from the extraction's run
// records) and the files each query opened (Trace.TouchedFiles), content
// and order, on the serial engine:
//   - a cold Q2: every record extracted from coalesced runs;
//   - the same Q2 warm: every record a cache read;
//   - a cold Q2 under PrefetchWholeFile: one ExtractFile per file, and with
//     the recycler disabled, the records each file then decodes again;
//   - a windowed aggregate cold, then warm, when its zones answer every
//     record the window wholly admits and the edge records are cache reads.
func TestRuntimeOpsGolden(t *testing.T) {
	dir := genRepo(t, 3000)
	var b bytes.Buffer
	run := func(name string, etlOpts etl.Options, queries ...string) {
		w, err := Open(dir, Options{Mode: Lazy, Workers: 1, ETL: etlOpts})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, err := w.QueryUncached(t.Context(), q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "== %s, query %d\n-- touched files (%d):\n", name, i+1, len(res.Trace.TouchedFiles))
			for _, f := range res.Trace.TouchedFiles {
				fmt.Fprintln(&b, f)
			}
			ops := res.Trace.RuntimeOps()
			fmt.Fprintf(&b, "-- runtime ops (%d):\n", len(ops))
			for _, op := range ops {
				fmt.Fprintln(&b, op)
			}
		}
	}
	run("Q2 cold, then warm", etl.Options{}, q2, q2)
	run("Q2 under PrefetchWholeFile", etl.Options{PrefetchWholeFile: true}, q2)
	run("Q2 under PrefetchWholeFile, recycler disabled", etl.Options{PrefetchWholeFile: true, DisableCache: true}, q2)
	run("windowed aggregate cold, then zone-answered", etl.Options{}, zoneAnswerShapes[1].q, zoneAnswerShapes[1].q)

	golden := filepath.Join("testdata", "runtime_ops.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("runtime ops drifted from %s at line %d:\n%s", golden, i+1, strings.Join(got[max(0, i-3):min(len(got), i+3)], "\n"))
		}
	}
}

// genQ2Fleet writes the 16 files a Q2 reads in the benchmark's fleet: BHZ
// of its 8 NL stations over 2 days, 80,000 samples a day at 40 Hz in
// 512-byte Steim-2 records.
func genQ2Fleet(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	var stations []seisgen.Station
	for _, code := range []string{"HGN", "DBN", "WIT", "ROLD", "OPLO", "WTSB", "VKB", "HRKB"} {
		stations = append(stations, seisgen.Station{Network: "NL", Code: code})
	}
	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir: dir, Stations: stations, Channels: []string{"BHZ"}, Days: 2,
		SamplesPerDay: 80_000, SampleRate: 40, Encoding: mseed.EncodingSteim2,
		RecordLength: 512, EventsPerDay: 2, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestQ2Allocs holds a cold Q2 (DisableCache: every record read and
// decoded) and a warm one (every record a cache read) to a budget of
// allocations per query. While extraction formatted one string per record
// and run and copied each into the operation log, the 2,482 records of
// this fleet took 12,393 allocations per cold and 11,934 per warm Q2.
func TestQ2Allocs(t *testing.T) {
	const maxAllocs = 2500
	dir := genQ2Fleet(t)
	for _, c := range []struct {
		name string
		etl  etl.Options
	}{{"cold", etl.Options{DisableCache: true}}, {"warm", etl.Options{}}} {
		w, err := Open(dir, Options{Mode: Lazy, Workers: 2, ETL: c.etl})
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			if _, err := w.QueryUncached(t.Context(), q2); err != nil {
				t.Fatal(err)
			}
		}
		query()
		allocs := testing.AllocsPerRun(20, query)
		t.Logf("%s Q2: %.0f allocations per query", c.name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s Q2: %.0f allocations per query, budget %d", c.name, allocs, maxAllocs)
		}
	}
}

// TestLogKeepsQueryEntriesUnderTraffic: after a failed query, eight cold
// Q2s leave its error entry in the operation log, because a query adds the
// same few entries however many records it reads.
func TestLogKeepsQueryEntriesUnderTraffic(t *testing.T) {
	w, err := Open(genQ2Fleet(t), Options{Mode: Lazy, ETL: etl.Options{DisableCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(`SELECT nosuch FROM mseed.files`); err == nil {
		t.Fatal("the failing query succeeded")
	}
	per := -1
	for i := 0; i < 8; i++ {
		before := len(w.Log())
		res, err := w.QueryUncached(t.Context(), q2)
		if err != nil {
			t.Fatal(err)
		}
		added := len(w.Log()) - before
		if per < 0 {
			per = added
		}
		if added != per || added > 12 {
			t.Fatalf("Q2 %d read %d records and added %d log entries; the first added %d, and at most 12 are allowed",
				i+1, len(res.Trace.RuntimeOps()), added, per)
		}
	}
	for _, e := range w.Log() {
		if e.Op == "error" && strings.Contains(e.Detail, "nosuch") {
			return
		}
	}
	t.Error("eight Q2s pushed the failed query's error entry out of the log")
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/seisgen"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", vals, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// The tail rule: the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// Self time is a span's time minus its children's, floored at zero; the
// metadata subtree counts as one span; operator spans match by prefix.
func TestFoldSelf(t *testing.T) {
	tree := &obs.SpanNode{Name: "query", Nanos: 1000, Children: []*obs.SpanNode{
		{Name: "admit", Nanos: 10},
		{Name: "parse", Nanos: 40},
		{Name: "execute", Nanos: 900, Children: []*obs.SpanNode{
			{Name: "metadata", Nanos: 100, Children: []*obs.SpanNode{
				{Name: "scan mseed.files", Nanos: 30},
				{Name: "join HashJoin ON F.file_id = R.file_id", Nanos: 60},
			}},
			// Never End'ed: its duration is the sum of its children, which
			// accumulate across workers and exceed the parent's wall time.
			{Name: "extract-stream", Children: []*obs.SpanNode{
				{Name: "read", Nanos: 200, Bytes: 4096},
				{Name: "decode", Nanos: 700},
			}},
			{Name: "stage filter (D.sample_value > 9000.5)", Nanos: 50},
			{Name: "stage aggregate", Nanos: 20},
		}},
		{Name: "emit", Nanos: 5},
	}}
	got := map[string]int64{}
	foldSelf(tree, got)
	want := map[string]int64{
		"warehouse.admit_us": 10,
		"sql.parse_us":       40,
		"warehouse.emit_us":  5,
		"etl.metadata_us":    100, // whole subtree, its scan and join not split out
		"etl.read_us":        200,
		"etl.decode_us":      700,
		"exec.filter_us":     50,
		"exec.aggregate_us":  20,
		// query: 1000 - (10+40+900+5) = 45; execute: 900 - (100+900+50+20) < 0 -> 0.
		otherBucket: 45,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("fold[%s] = %d, want %d", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected bucket %s = %d", k, got[k])
		}
	}

	f := newFold()
	f.add(tree, 1000)
	if f.readBytes != 4096 || f.readNs != 200 || f.trees != 1 {
		t.Errorf("fold read tallies = %d B / %d ns / %d trees", f.readBytes, f.readNs, f.trees)
	}
	if got, want := f.etlShare(), 900.0/1170.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("etlShare = %g, want %g", got, want)
	}
}

// Every span bucket must be a declared per-layer metric.
func TestSpanBucketsAreMetrics(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for _, b := range spanBuckets {
		if !declared[b.metric] {
			t.Errorf("span %q folds into undeclared metric %s", b.name, b.metric)
		}
	}
	if !declared[otherBucket] {
		t.Errorf("undeclared metric %s", otherBucket)
	}
}

// The open loop's schedule and its due-time accounting, on fabricated
// timestamps: a request stuck behind a stall is charged the stall.
func TestOpenLoopTiming(t *testing.T) {
	first := time.Unix(1000, 0)
	start := first.Add(time.Second)
	if got := dueAt(first, 250, 250); !got.Equal(start) {
		t.Errorf("request 250 at 250/s due %v, want %v", got, start)
	}
	if got := dueAt(first, 1, 250).Sub(first); got != 4*time.Millisecond {
		t.Errorf("inter-arrival = %v, want 4ms", got)
	}
	q := &query{class: classFetch}
	due := dueAt(first, 300, 250) // 200 ms into the window
	sent := due.Add(30 * time.Millisecond)
	done := sent.Add(5 * time.Millisecond)
	s := openSample(q, due, sent, done, start, false, true, false, nil)
	if s.lat != 35*time.Millisecond || s.svc != 5*time.Millisecond || s.late != 30*time.Millisecond {
		t.Errorf("lat/svc/late = %v/%v/%v, want 35ms/5ms/30ms", s.lat, s.svc, s.late)
	}
	if s.done != 235*time.Millisecond || s.waited || s.class != classFetch {
		t.Errorf("done %v waited %v class %v", s.done, s.waited, s.class)
	}
	if w := openSample(q, dueAt(first, 10, 250), first, first, start, true, true, false, nil); w.done-w.lat >= 0 {
		t.Errorf("a request due before start must read as warm-up, got due offset %v", w.done-w.lat)
	}
}

// Figures are medians over five equal sub-windows: a burst confined to two
// of them does not move the figures, one that reaches three does; failures
// and requests completed outside the window never count.
func TestWindowFigures(t *testing.T) {
	mk := func(burstFrom, burstTo int) []sample {
		var ss []sample
		for i := 0; i < 1000; i++ { // one completion per ms, 200 per sub-window
			lat := time.Millisecond
			if i >= burstFrom && i < burstTo {
				lat = 50 * time.Millisecond
			}
			ss = append(ss, sample{ok: true, done: time.Duration(i) * time.Millisecond, lat: lat})
		}
		ss = append(ss, sample{ok: false, done: 5 * time.Millisecond, lat: time.Hour}) // failed
		ss = append(ss, sample{ok: true, done: 2 * time.Second, lat: time.Hour})       // completed after the window
		ss = append(ss, sample{ok: true, done: -1, lat: time.Hour})                    // not part of the window
		return ss
	}
	f := windowFigures(mk(200, 600), time.Second, 95) // sub-windows 1 and 2 disturbed
	if f.n != 1000 || math.Abs(f.qps-1000) > 1e-6 || f.p50 != 1 || f.tail != 1 {
		t.Errorf("two disturbed sub-windows of five: %+v, want n=1000, 1000/s and 1 ms throughout", f)
	}
	f = windowFigures(mk(200, 800), time.Second, 95) // sub-windows 1, 2 and 3
	if f.p50 != 50 || f.tail != 50 {
		t.Errorf("three disturbed sub-windows of five: %+v, want 50 ms", f)
	}
	// 150 samples: a fifth of them leaves 1.5 beyond p95, so the window is
	// not cut and the figures are the whole window's.
	ss := mk(0, 50)[:150]
	f = windowFigures(ss, 150*time.Millisecond, 95)
	if f.n != 150 || f.parts != 1 || f.p50 != 1 || f.tail != 50 {
		t.Errorf("uncut window: %+v, want one part, p50 1, tail 50", f)
	}
}

// The speed factor is the median kernel time inside the interval over the
// reference; walks outside the interval, and intervals with fewer than
// three walks, do not count.
func TestSpeedFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := &speedometer{}
	for i, took := range []time.Duration{speedReference, 2 * speedReference, 3 * speedReference, 50 * speedReference} {
		s.at = append(s.at, t0.Add(time.Duration(i)*speedEvery))
		s.took = append(s.took, took)
	}
	if got := s.factor(t0, t0.Add(3*speedEvery)); got != 2 {
		t.Errorf("factor over the first three walks = %g, want 2", got)
	}
	if got := s.factor(t0.Add(2*speedEvery), t0.Add(time.Hour)); got != 1 {
		t.Errorf("factor over two walks = %g, want 1 (too few)", got)
	}
	live := startSpeedometer()
	time.Sleep(4 * speedEvery)
	live.halt()
	if f := live.factor(time.Time{}, time.Now()); len(live.at) < 3 || !(f > 0.2 && f < 50) {
		t.Errorf("live speedometer: %d walks, factor %g", len(live.at), f)
	}
}

func TestCounterMetrics(t *testing.T) {
	var a, b counters
	a.Warehouse.CacheStats = "hits=100 misses=50 evictions=5 invalidations=0 declined=0/0B"
	b.Warehouse.CacheStats = "hits=190 misses=60 evictions=9 invalidations=1 declined=2/64B"
	a.Warehouse.QueryCache.PlanHits, b.Warehouse.QueryCache.PlanHits = 10, 40
	a.Warehouse.QueryCache.PlanMisses, b.Warehouse.QueryCache.PlanMisses = 10, 20
	a.Warehouse.Extraction.BytesRead, b.Warehouse.Extraction.BytesRead = 1000, 5000
	a.Warehouse.Extraction.RunsRead, b.Warehouse.Extraction.RunsRead = 1, 5
	a.Warehouse.Extraction.RunRecords, b.Warehouse.Extraction.RunRecords = 10, 90
	a.Warehouse.Extraction.Extractions, b.Warehouse.Extraction.Extractions = 10, 40
	b.Warehouse.Extraction.RecordsSkipped = 90
	a.Warehouse.Extraction.SamplesServed, b.Warehouse.Extraction.SamplesServed = 0, 8000
	a.Warehouse.Exec.PipelineFallbacks, b.Warehouse.Exec.PipelineFallbacks = 2, 12
	b.Warehouse.Exec.FilterRowsIn, b.Warehouse.Exec.FilterRowsOut = 1000, 250
	b.Warehouse.CacheBytes, b.Warehouse.StoreBytes, b.Warehouse.Mem.HighWater = 4096, 777, 999
	a.Server.Rejected, b.Server.Rejected = 1, 4
	got := counterMetrics(&a, &b, 20, 2*time.Second)
	want := map[string]float64{
		"recycler.hit_ratio":               0.9, // 90 hits, 10 misses
		"recycler.evictions":               4,
		"recycler.bytes":                   4096,
		"warehouse.plan_cache_hit_ratio":   0.75,
		"etl.bytes_read_per_query":         200,
		"etl.runs_per_query":               0.2,
		"etl.records_per_run":              20,
		"etl.records_skipped_ratio":        0.75,
		"etl.samples_served_per_s":         4000,
		"plan.fallback_ratio":              0.5,
		"exec.filter_selectivity":          0.25,
		"catalog.store_bytes":              777,
		"mem.highwater_bytes":              999,
		"lazyetld.rejected":                3,
		"warehouse.result_cache_hit_ratio": 0, // no probes in the window: 0, not NaN
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, g, w)
		}
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for k := range got {
		if !declared[k] {
			t.Errorf("counterMetrics reports undeclared metric %s", k)
		}
	}
}

func TestCheckRows(t *testing.T) {
	// checkRows sorts in place when told the statement has no ORDER BY.
	want := func() [][]any { return [][]any{{"HGN", approx(1.0 / 3), 7.0}, {"DBN", approx(2.5), -1.0}} }
	got := func() [][]any { return [][]any{{"DBN", 2.5 * (1 + 1e-12), -1.0}, {"HGN", 1.0 / 3, 7.0}} }
	if err := checkRows(got(), want(), true); err != nil {
		t.Errorf("equal up to order and 1e-9: %v", err)
	}
	if err := checkRows(got(), want(), false); err == nil {
		t.Error("order must matter for an ORDER BY statement")
	}
	if err := checkRows([][]any{{"HGN", 1.0 / 3, 7.0000001}}, want()[:1], false); err == nil {
		t.Error("MIN/MAX/COUNT cells are compared exactly")
	}
	if err := checkRows(got()[:1], want(), true); err == nil {
		t.Error("row count must match")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must repeat the driver's own metric and workload lists
// and stay inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, m, w)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s[%d]: name %q / unit %q outside the contract, or repeated", kind, i, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != w.bound || *m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, m.Name, m.Bound, w.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json outside the contract's size limits")
	}
}

// smokeCfg is a 6-file fixture: 2 stations x 3 channels x 1 day.
var smokeCfg = fixtureCfg{
	stations:        []seisgen.Station{{Network: "NL", Code: "HGN"}, {Network: "KO", Code: "ISK"}},
	warmStations:    1,
	channels:        []string{"BHZ", "BHN", "BHE"},
	days:            1,
	samplesPerDay:   20000,
	poolDays:        3,
	setupRepeats:    1,
	scanWindow:      100 * time.Second,
	fetchWindow:     20 * time.Second,
	warmUp:          100 * time.Millisecond,
	refreshPeriod:   60 * time.Millisecond,
	refreshPoolEach: 2,
}

// TestSmoke runs every workload for half a second against a real lazyetld
// on the 6-file fixture: no operation may fail, the oracle must agree, and
// both result lines must name exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns lazyetld")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	for _, w := range workloads {
		// A traced run computes both metric sets; the untraced result line
		// is rendered from the same report.
		rep, err := e.runOne(smokeCfg, runOpts{workload: w.name, seed: 7, seconds: 500 * time.Millisecond, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, rep.Attempted, rep.Failed, rep.Notes)
		}
		checkResultLine(t, rep, perLayer)
		rep.Trace = false
		checkResultLine(t, rep, endToEnd)
		for _, m := range endToEnd {
			if !(rep.E2E[m.name] > 0) {
				t.Errorf("%s %s = %g: end-to-end metrics are never 0", w.name, m.name, rep.E2E[m.name])
			}
		}
		if w.name == "refresh_mix" && !(rep.Layer["refresh_p50_ms"] > 0) {
			t.Errorf("refresh_mix: refresh_p50_ms = %g", rep.Layer["refresh_p50_ms"])
		}
	}

	// A daemon that cannot become ready (no files to serve) fails the run
	// with its output, and is reaped.
	if _, err := e.startDaemon(newHTTPClient(1), t.TempDir(), "-mode", "lazy"); err == nil {
		t.Error("startDaemon over an empty repository: no error")
	} else if !strings.Contains(err.Error(), "no mSEED files") {
		t.Errorf("startDaemon error does not carry the daemon's output: %v", err)
	}
	if len(e.daemons) != 0 {
		t.Errorf("%d daemons still tracked", len(e.daemons))
	}

	// Once clean-up has begun (the signal handler's path) nothing may spawn.
	e.cleanup()
	if d, err := e.startDaemon(newHTTPClient(1), t.TempDir(), "-mode", "lazy"); err == nil {
		d.stop()
		t.Error("startDaemon after cleanup: no error")
	} else if !strings.Contains(err.Error(), "shutting down") {
		t.Errorf("startDaemon after cleanup: %v", err)
	}
}

// checkResultLine asserts the result line names exactly defs, with units.
func checkResultLine(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: result line %+v", rep.Workload, line)
	}
	var got, want []string
	for k := range line.Metrics {
		got = append(got, k)
	}
	for _, m := range defs {
		want = append(want, m.name)
		if line.Metrics[m.name].Unit != m.unit {
			t.Errorf("%s: unit %q, want %q", m.name, line.Metrics[m.name].Unit, m.unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s trace=%v: %d metrics, want %d", rep.Workload, rep.Trace, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s trace=%v: metric %q, want %q", rep.Workload, rep.Trace, got[i], want[i])
		}
	}
}

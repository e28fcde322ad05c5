package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

const testQ = `SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value)
 FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.station`

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	promSample  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? \S+$`)
)

// validateProm checks every line of a scrape is well-formed Prometheus
// text exposition and that every sample belongs to a # TYPE'd family.
// Returns the sample values keyed by "name{labels}".
func validateProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Errorf("malformed comment line: %q", line)
			}
			if f := strings.Fields(line); f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suffix); fam != base && typed[fam] {
				base = fam
				break
			}
		}
		if !typed[base] {
			t.Errorf("sample %q has no # TYPE line", m[1])
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := postQuery(t, ts, testQ); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	samples := validateProm(t, body)
	for _, want := range []string{
		`lazyetl_query_duration_seconds_count{class="cold"}`,
		`lazyetl_query_duration_seconds_bucket{class="cold",le="+Inf"}`,
		"lazyetl_queries_total",
		"lazyetl_admit_wait_seconds_count",
		`lazyetl_admit_wait_seconds_bucket{le="+Inf"}`,
		"lazyetl_query_errors_total",
		"lazyetl_result_cache_hits_total",
		"lazyetl_extract_records_total",
		"lazyetl_store_bytes",
		"lazyetld_requests_served_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("scrape is missing %s", want)
		}
	}
	if samples["lazyetl_queries_total"] < 1 {
		t.Errorf("lazyetl_queries_total = %v after a query", samples["lazyetl_queries_total"])
	}
	if got, want := samples["lazyetl_admit_wait_seconds_count"], samples["lazyetl_queries_total"]; got != want {
		t.Errorf("lazyetl_admit_wait_seconds_count = %v, want one per admitted query (%v)", got, want)
	}
	if samples["lazyetld_requests_served_total"] < 1 {
		t.Errorf("lazyetld_requests_served_total = %v", samples["lazyetld_requests_served_total"])
	}

	post, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", post.StatusCode)
	}
}

// TestHealthEndpoints: /healthz and /readyz answer 200, and /readyz stays
// 200 for the whole of a Refresh that runs beside a cold query — a refresh
// never stops the daemon serving.
func TestHealthEndpoints(t *testing.T) {
	// A larger repository than testServer's, so the refresh's header rescan
	// and the cold aggregation beside it take long enough to poll through.
	dir := t.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		SamplesPerDay: 100000,
		EventsPerDay:  1,
		Seed:          42,
	}); err != nil {
		t.Fatal(err)
	}
	w, err := warehouse.Open(dir, warehouse.Options{Mode: warehouse.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(w, 4)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, body := getBody(t, ts, "/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz = %d %q", resp.StatusCode, body)
	}

	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		_, _ = w.Query(`SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview`)
	}()
	refreshDone := make(chan error, 1)
	go func() {
		_, err := w.Refresh()
		refreshDone <- err
	}()
	for polls := 0; ; polls++ {
		select {
		case err := <-refreshDone:
			if err != nil {
				t.Fatalf("refresh: %v", err)
			}
			<-queryDone
			if resp, body := getBody(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || body != "ready\n" {
				t.Errorf("/readyz after refresh = %d %q", resp.StatusCode, body)
			}
			t.Logf("%d /readyz polls during the refresh", polls)
			return
		default:
		}
		if resp, body := getBody(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || body != "ready\n" {
			t.Fatalf("/readyz during a refresh = %d %q", resp.StatusCode, body)
		}
	}
}

func TestQueryTraceJSON(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(request{SQL: testQ})
	resp, err := ts.Client().Post(ts.URL+"/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		RowCount int `json:"row_count"`
		Trace    *struct {
			Name     string            `json:"name"`
			Nanos    int64             `json:"nanos"`
			Children []json.RawMessage `json:"children"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace in ?trace=1 response")
	}
	if out.Trace.Name != "query" || out.Trace.Nanos <= 0 || len(out.Trace.Children) == 0 {
		t.Errorf("trace root = %+v", out.Trace)
	}

	// Without ?trace=1 the key is absent entirely.
	_, plain := postQuery(t, ts, testQ)
	if bytes.Contains(plain, []byte(`"trace"`)) {
		t.Error("untraced response carries a trace key")
	}
}

// TestConcurrentScrapes interleaves queries, /metrics and /stats scrapes
// and warehouse refreshes (run with -race), then checks the histograms
// account for exactly the successfully served queries.
func TestConcurrentScrapes(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var served, refreshes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := []string{
				testQ,
				`SELECT station, COUNT(*) FROM mseed.files GROUP BY station`,
				`SELECT COUNT(*) FROM mseed.records`,
			}
			for i := 0; i < 6; i++ {
				resp, _ := postQuery(t, ts, queries[(g+i)%len(queries)])
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, body := getBody(t, ts, "/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics status %d", resp.StatusCode)
				}
				validateProm(t, body)
				if resp, _ := getBody(t, ts, "/stats"); resp.StatusCode != http.StatusOK {
					t.Errorf("/stats status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := w.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			refreshes.Add(1)
		}
	}()
	wg.Wait()

	_, body := getBody(t, ts, "/metrics")
	samples := validateProm(t, body)
	var queryTotal, refreshTotal float64
	for _, class := range []string{"cold", "cached", "prepared"} {
		queryTotal += samples[`lazyetl_query_duration_seconds_count{class="`+class+`"}`]
	}
	refreshTotal = samples[`lazyetl_query_duration_seconds_count{class="refresh"}`]
	if int64(queryTotal) != served.Load() {
		t.Errorf("histograms account for %v queries, served %d", queryTotal, served.Load())
	}
	if int64(refreshTotal) != refreshes.Load() {
		t.Errorf("refresh histogram count %v, want %d", refreshTotal, refreshes.Load())
	}
	for _, class := range []string{"cold", "cached", "prepared", "refresh"} {
		inf := samples[`lazyetl_query_duration_seconds_bucket{class="`+class+`",le="+Inf"}`]
		count := samples[`lazyetl_query_duration_seconds_count{class="`+class+`"}`]
		if inf != count {
			t.Errorf("class %s: +Inf bucket %v != count %v", class, inf, count)
		}
	}
}

// TestStatsWireContract pins the GET /stats paths benchmark/client.go
// decodes by field name (its counters type), and the zone-answer and
// failure counters on /stats and /metrics: a renamed or deleted field would
// read as zero there, silently. CacheStats stays a string only
// because that client scans it.
func TestStatsWireContract(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if resp, _ := postQuery(t, ts, testQ); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	_, body := getBody(t, ts, "/stats")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	lookup := func(path string) (any, bool) {
		var v any = doc
		for _, key := range strings.Split(path, ".") {
			m, ok := v.(map[string]any)
			if !ok {
				return nil, false
			}
			if v, ok = m[key]; !ok {
				return nil, false
			}
		}
		return v, true
	}
	paths := []string{"server.rejected", "warehouse.StoreBytes", "warehouse.CacheBytes", "warehouse.CacheStats"}
	for block, fields := range map[string][]string{
		"QueryCache": {"PlanHits", "PlanMisses", "ResultHits", "ResultMisses", "ResultEvictions", "ResultUnreused", "ResultInvalidations"},
		"Extraction": {"Extractions", "CacheReads", "BytesRead", "SamplesServed", "RunsRead", "RunRecords", "RecordsSkipped", "RecordsAnswered"},
		"Exec":       {"Pipelines", "FilterRowsIn", "FilterRowsOut", "ScanRowsSkipped", "JoinReorders", "BytesSpilled", "SpillNanos"},
		"Mem":        {"HighWater", "Denials"},
		"Failures":   {"Errors", "Cancelled", "DeadlineExceeded", "PanicsRecovered"},
	} {
		for _, f := range fields {
			paths = append(paths, "warehouse."+block+"."+f)
		}
	}
	for _, p := range paths {
		if _, ok := lookup(p); !ok {
			t.Errorf("GET /stats has no %s", p)
		}
	}
	cs, _ := lookup("warehouse.CacheStats")
	line, _ := cs.(string)
	var hits, misses, evictions, inval, declined, declinedBytes int64
	if n, err := fmt.Sscanf(line, "hits=%d misses=%d evictions=%d invalidations=%d declined=%d/%dB",
		&hits, &misses, &evictions, &inval, &declined, &declinedBytes); n != 6 || err != nil {
		t.Errorf("CacheStats %q scans %d of 6 fields: %v", line, n, err)
	}
	if files, _ := lookup("warehouse.Init.Files"); files == nil || files.(float64) <= 0 {
		t.Errorf("warehouse.Init.Files = %v, want the initial load's file count", files)
	}
	// Records answered from zones are counted apart from records pruned:
	// the benchmark's etl.records_skipped_ratio reads RecordsSkipped alone.
	_, metrics := getBody(t, ts, "/metrics")
	for _, fam := range []string{"lazyetl_extract_records_answered_total", "lazyetl_query_cancelled_total",
		"lazyetl_query_deadline_exceeded_total", "lazyetl_query_panics_recovered_total"} {
		if !strings.Contains(metrics, "\n"+fam+" ") {
			t.Errorf("GET /metrics has no %s", fam)
		}
	}
}

// TestMetricsREADMETable checks README.md's /metrics table against a live
// scrape, family by family, in both directions.
func TestMetricsREADMETable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "## `GET /metrics`")
	table, _, _ = strings.Cut(table, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			for _, fam := range expandBraces(m[1]) {
				documented[fam] = true
			}
		}
	}

	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, body := getBody(t, ts, "/metrics")
	scraped := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			scraped[f[2]] = true
		}
	}
	for fam := range scraped {
		if !documented[fam] {
			t.Errorf("README.md has no /metrics row for %s", fam)
		}
	}
	for fam := range documented {
		if !scraped[fam] {
			t.Errorf("README.md documents %s, which /metrics does not export", fam)
		}
	}
}

// expandBraces expands the `{a,b}` groups of a README metric name into one
// family name per alternative; a group holding '=' (`{class=}`) names the
// labels of one family and is dropped.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	group, rest := name[open+1:end], name[end+1:]
	if strings.Contains(group, "=") {
		return expandBraces(name[:open] + rest)
	}
	var out []string
	for _, alt := range strings.Split(group, ",") {
		out = append(out, expandBraces(name[:open]+alt+rest)...)
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

func testServer(t *testing.T) (*server, *warehouse.Warehouse) {
	t.Helper()
	dir := t.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		SamplesPerDay: 2000,
		EventsPerDay:  1,
		Seed:          42,
	}); err != nil {
		t.Fatal(err)
	}
	w, err := warehouse.Open(dir, warehouse.Options{Mode: warehouse.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(w, 4), w
}

func postQuery(t *testing.T, ts *httptest.Server, sql string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(request{SQL: sql})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "SELECT station, COUNT(*) AS n FROM mseed.files GROUP BY station ORDER BY station"
	resp, body := postQuery(t, ts, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response body %s: %v", body, err)
	}
	want, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.RowCount; got != want.Batch.NumRows() {
		t.Fatalf("row_count = %d, direct query returned %d rows", got, want.Batch.NumRows())
	}
	if len(out.Columns) != len(want.Columns) {
		t.Fatalf("columns = %v, want %v", out.Columns, want.Columns)
	}
	for i := range out.Rows {
		for j, v := range want.Batch.Row(i) {
			// Compare via JSON so int64(5) and the round-tripped float64(5)
			// render identically.
			wantJSON, _ := json.Marshal(jsonValue(v))
			gotJSON, _ := json.Marshal(out.Rows[i][j])
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("row %d col %d: server sent %s, direct query has %s", i, j, gotJSON, wantJSON)
			}
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d, want 405", resp.StatusCode)
	}

	resp2, body := postQuery(t, ts, "")
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql status = %d (%s), want 400", resp2.StatusCode, body)
	}

	resp3, body := postQuery(t, ts, "SELEC nonsense")
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad sql status = %d (%s), want 422", resp3.StatusCode, body)
	}
	if srv.failed.Load() != 1 {
		t.Fatalf("failed counter = %d, want 1", srv.failed.Load())
	}
}

// TestHostileAndAbandonedQueries: a statement nested past the parser's
// depth bound — 100,000 NOTs, 400 KB — is a 422 naming the offset, on
// /query and /prepare, and a query whose client has gone is cancelled
// (the handler's context is the request's), on /query and /explain.
// Either way the warehouse is idle afterwards and the next query answers.
func TestHostileAndAbandonedQueries(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const where = "SELECT COUNT(*) FROM mseed.files WHERE "
	deep := where + strings.Repeat("NOT ", 100_000) + "station = 'ISK'"
	want := fmt.Sprintf("sql: at offset %d: expression nested deeper than 256 levels", len(where)+4*256)
	for _, ep := range []string{"/query", "/prepare"} {
		body, _ := json.Marshal(request{SQL: deep})
		resp, err := ts.Client().Post(ts.URL+ep, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out errorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(out.Error, want) {
			t.Errorf("%s: status %d, error %q (%v), want 422 and %q", ep, resp.StatusCode, out.Error, err, want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(request{SQL: "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'"})
	for _, ep := range []string{"/query", "/explain"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Errorf("abandoned %s: status %d, body %s, want 422 and %q", ep, rec.Code, rec.Body, context.Canceled)
		}
	}

	st := w.Stats()
	if st.InFlight != 0 || st.Mem.Used != st.CacheBytes+st.QueryCache.ResultBytes {
		t.Errorf("not idle: %d slots held, ledger %d bytes for recycler %d + results %d",
			st.InFlight, st.Mem.Used, st.CacheBytes, st.QueryCache.ResultBytes)
	}
	if resp, body := postQuery(t, ts, "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'"); resp.StatusCode != http.StatusOK {
		t.Fatalf("next query: status %d: %s", resp.StatusCode, body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, body := postQuery(t, ts, "SELECT COUNT(*) FROM mseed.files"); len(body) == 0 {
		t.Fatal("empty query response")
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Server.Served != 1 {
		t.Fatalf("served = %d, want 1", out.Server.Served)
	}
	if out.Warehouse.Queries != 1 {
		t.Fatalf("warehouse queries = %d, want 1", out.Warehouse.Queries)
	}
	if out.Warehouse.MaxConcurrentQueries <= 0 {
		t.Fatalf("MaxConcurrentQueries = %d, want > 0", out.Warehouse.MaxConcurrentQueries)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Run the pruning query twice: the first execution extracts everything
	// and collects zone maps as a by-product, the second consults them.
	// seisgen amplitudes top out in the tens of thousands, so > 1e9 prunes
	// every record.
	const q = "SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 1000000000"
	if resp, body := postQuery(t, ts, q); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up query status %d: %s", resp.StatusCode, body)
	}
	body, _ := json.Marshal(request{SQL: q})
	resp, err := ts.Client().Post(ts.URL+"/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /explain status = %d", resp.StatusCode)
	}
	var out explainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == "" {
		t.Fatal("explain response has no plan")
	}
	var skipped int64
	for _, sc := range out.Scans {
		skipped += sc.RecordsSkipped
	}
	if len(out.Scans) == 0 || skipped == 0 {
		t.Fatalf("explain scans report no skipping after zone collection: %+v", out.Scans)
	}

	resp2, err := ts.Client().Get(ts.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /explain status = %d, want 405", resp2.StatusCode)
	}
}

func TestStatsReportSkipping(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Distinct literals so the second request re-executes (one template,
	// one statement) instead of being served from the result cache; the
	// first run collects zone maps, the second prunes with them.
	for i, q := range []string{
		"SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 1000000000",
		"SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 999999999",
	} {
		if resp, body := postQuery(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ex := out.Warehouse.Extraction
	if ex.RecordsSkipped == 0 {
		t.Fatalf("extraction records skipped = 0 after pruning query, stats: %+v", ex)
	}
	if ex.RunsSkipped == 0 {
		t.Fatalf("extraction runs skipped = 0 after pruning query, stats: %+v", ex)
	}
}

// TestRepeatedQueryReportsCacheHit: the same statement twice over /query
// must surface a result-cache hit in GET /stats.
func TestRepeatedQueryReportsCacheHit(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "SELECT station, COUNT(*) FROM mseed.files GROUP BY station"
	var bodies [2][]byte
	for i := 0; i < 2; i++ {
		resp, body := postQuery(t, ts, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	var a, b queryResponse
	if err := json.Unmarshal(bodies[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodies[1], &b); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Errorf("cached answer differs:\n%v\n%v", a.Rows, b.Rows)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	qc := out.Warehouse.QueryCache
	if qc.ResultHits == 0 {
		t.Fatalf("repeated query reported no result-cache hit: %+v", qc)
	}
	if qc.ResultMisses == 0 || qc.ResultEntries == 0 {
		t.Fatalf("query-cache stats implausible: %+v", qc)
	}
}

func TestPrepareExecuteEndpoints(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(request{SQL: "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = ? AND D.sample_value > ?"})
	resp, err := ts.Client().Post(ts.URL+"/prepare", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var prep prepareResponse
	if err := json.NewDecoder(resp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status %d", resp.StatusCode)
	}
	if prep.ID != prep.SQL || prep.NumParams != 2 {
		t.Fatalf("prepare response: %+v; want the canonical text as id", prep)
	}
	prepare := func(sql string) prepareResponse {
		t.Helper()
		body, _ := json.Marshal(request{SQL: sql})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/prepare", bytes.NewReader(body)))
		var out prepareResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("prepare %q: status %d, %s", sql, rec.Code, rec.Body)
		}
		return out
	}
	if again := prepare("select COUNT(*)  from mseed.dataview  where F.station=? and D.sample_value >?"); again.ID != prep.ID {
		t.Fatalf("another spelling of the statement got id %q, want %q", again.ID, prep.ID)
	}

	exec := func(params ...any) (*http.Response, queryResponse, []byte) {
		t.Helper()
		body, _ := json.Marshal(request{ID: prep.ID, Params: params})
		resp, err := ts.Client().Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var out queryResponse
		_ = json.Unmarshal(buf.Bytes(), &out)
		return resp, out, buf.Bytes()
	}

	resp2, out, raw := exec("ISK", 500)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp2.StatusCode, raw)
	}
	want, err := w.QueryUncached(context.Background(), "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND D.sample_value > 500")
	if err != nil {
		t.Fatal(err)
	}
	if out.RowCount != want.Batch.NumRows() ||
		fmt.Sprint(out.Rows[0][0]) != fmt.Sprint(jsonValue(want.Batch.Row(0)[0])) {
		t.Fatalf("execute answer %s diverged from direct query %v", raw, want.Batch.Row(0))
	}

	// A handle never expires: it executes after 300 other statements, each
	// prepared twice so that it reaches the statement cache's protected
	// segment, have pushed its statement out of the 256-entry cache.
	for i := 1; i <= 300; i++ {
		for range 2 {
			prepare(fmt.Sprintf("SELECT COUNT(*) FROM mseed.files WHERE station = ? AND file_id > %d", i))
		}
	}
	if resp, _, raw := exec("ISK", 500); resp.StatusCode != http.StatusOK {
		t.Fatalf("execute after the statement left the cache: status %d: %s", resp.StatusCode, raw)
	}

	// Wrong parameter count is a client error, not a 500.
	resp3, _, raw3 := exec("ISK")
	if resp3.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short param list status %d: %s", resp3.StatusCode, raw3)
	}
	// Unknown id is a 404.
	body4, _ := json.Marshal(request{ID: "p999", Params: []any{"ISK", 500}})
	resp4, err := ts.Client().Post(ts.URL+"/execute", "application/json", bytes.NewReader(body4))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", resp4.StatusCode)
	}
	// A statement with markers is rejected on the ad-hoc path.
	resp5, raw5 := postQuery(t, ts, "SELECT COUNT(*) FROM mseed.files WHERE station = ?")
	if resp5.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("raw '?' over /query status %d: %s", resp5.StatusCode, raw5)
	}
}

func TestConcurrentHTTPQueries(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "SELECT station, COUNT(*) AS n FROM mseed.files GROUP BY station ORDER BY station"
	want, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, body := postQuery(t, ts, q)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var out queryResponse
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					return
				}
				if out.RowCount != want.Batch.NumRows() {
					errs <- fmt.Errorf("row_count = %d, want %d", out.RowCount, want.Batch.NumRows())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.served.Load(); got != 16 {
		t.Fatalf("served = %d, want 16", got)
	}
}

func TestPerClientLimiter(t *testing.T) {
	l := newClientLimiter(2)
	if !l.acquire("a") || !l.acquire("a") {
		t.Fatal("first two acquires for client a should succeed")
	}
	if l.acquire("a") {
		t.Fatal("third acquire for client a should be rejected")
	}
	if !l.acquire("b") {
		t.Fatal("client b must not be affected by client a's load")
	}
	l.release("a")
	if !l.acquire("a") {
		t.Fatal("acquire after release should succeed")
	}
	l.release("a")
	l.release("a")
	l.release("b")
	if len(l.inUse) != 0 {
		t.Fatalf("limiter map not drained: %v", l.inUse)
	}
}

func TestPerClientLimitOverHTTP(t *testing.T) {
	srv, _ := testServer(t)
	srv.clients = newClientLimiter(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the single slot for this client, then issue a request that must
	// bounce with 429. httptest requests all share the loopback client IP.
	key := "127.0.0.1"
	if !srv.clients.acquire(key) {
		t.Fatal("setup acquire failed")
	}
	resp, body := postQuery(t, ts, "SELECT COUNT(*) FROM mseed.files")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.rejected.Load())
	}
	srv.clients.release(key)
	resp2, body := postQuery(t, ts, "SELECT COUNT(*) FROM mseed.files")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d (%s), want 200", resp2.StatusCode, body)
	}
}

func TestJSONValue(t *testing.T) {
	cases := []struct {
		v    column.Value
		want string
	}{
		{column.Value{Type: column.Int64, Null: true}, "null"},
		{column.Value{Type: column.Int64, I: 42}, "42"},
		{column.Value{Type: column.Float64, F: 1.5}, "1.5"},
		{column.Value{Type: column.Float64, F: math.NaN()}, `"NaN"`},
		{column.Value{Type: column.Float64, F: math.Inf(1)}, `"+Inf"`},
		{column.Value{Type: column.Bool, I: 1}, "true"},
		{column.Value{Type: column.String, S: "GE"}, `"GE"`},
	}
	for _, c := range cases {
		got, err := json.Marshal(jsonValue(c.v))
		if err != nil {
			t.Fatalf("%+v: %v", c.v, err)
		}
		if string(got) != c.want {
			t.Errorf("jsonValue(%+v) marshals to %s, want %s", c.v, got, c.want)
		}
	}
}

// TestHTTPServerBoundsHeaderRead checks the server main runs: it must not
// wait forever on a connection that never sends its request headers.
func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Errorf("server built for %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
}

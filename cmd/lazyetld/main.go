// Command lazyetld is the long-lived serving front-end of the warehouse:
// one process, one open warehouse, many concurrent clients over HTTP/JSON.
// It is the "millions of users sharing one scientific warehouse" shape of
// the paper's demo — where cmd/lazyetl is a single-user REPL, lazyetld
// serves the same lazy-ETL warehouse to a fleet.
//
//	lazyetld -repo DIR [-addr :8632] [-mode lazy|eager|external] [-gen]
//	         [-cache BYTES] [-workers N] [-mem-budget BYTES]
//	         [-slow-query DURATION] [-max-concurrent N] [-per-client N]
//	         [-drain DURATION] [-pprof-addr ADDR]
//
// The flags up to -slow-query are cmd/lazyetl's too (internal/cli).
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT ..."}  ->  {"columns": [...], "rows": [[...]], ...}
//	POST /explain  {"sql": "SELECT ..."}  ->  executed plan and per-scan
//	               zone-map skipping (runs/records/rows read vs skipped)
//	POST /prepare  {"sql": "select ... where x=?"}  ->  {"id": "SELECT ... WHERE x = ?", ...}
//	POST /execute  {"id": "SELECT ... WHERE x = ?", "params": ["ISK", 500]}  ->  same shape as /query
//	GET  /stats    warehouse + server counters (including the query cache)
//	GET  /metrics  Prometheus text exposition (see README.md for the names)
//	GET  /healthz  liveness: 200 once the process serves
//	GET  /readyz   readiness: 200 once serving (a refresh never stops queries)
//
// POST /query and /execute accept ?trace=1, which adds the query's span
// tree ("trace" in the response) — wall time, rows and bytes per serve
// phase and operator. -slow-query logs over-threshold queries with their
// span tree; -pprof-addr serves net/http/pprof on a separate listener.
//
// Queries execute concurrently inside the warehouse (see the concurrency
// contract in internal/warehouse): per-query snapshots, a shared memory
// ledger carved into per-query sub-budgets, and admission control at
// -max-concurrent. The server adds a per-client in-flight cap
// (-per-client, keyed by client IP) so one greedy client cannot occupy
// every admission slot, and drains in-flight queries on SIGINT/SIGTERM
// before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/warehouse"
)

func main() {
	addr := flag.String("addr", ":8632", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries admitted to execute simultaneously (0 = GOMAXPROCS)")
	perClient := flag.Int("per-client", 4, "in-flight queries allowed per client IP")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight queries")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	repoDir, opts := cli.Parse("lazyetld")
	opts.MaxConcurrentQueries = *maxConcurrent

	start := time.Now()
	w, err := warehouse.Open(repoDir, opts)
	if err != nil {
		fatal(err)
	}
	ist := w.InitStats()
	fmt.Printf("lazyetld: %v warehouse over %s: %d files, %d records loaded in %v\n",
		opts.Mode, repoDir, ist.Files, ist.Records, time.Since(start).Round(time.Millisecond))

	srv := newHTTPServer(*addr, newServer(w, *perClient))

	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := newHTTPServer(*pprofAddr, pmux).ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "lazyetld: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("lazyetld: pprof on %s/debug/pprof/\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("lazyetld: serving on %s (POST /query, /explain, /prepare, /execute; GET /stats, /metrics, /healthz, /readyz)\n", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("lazyetld: shutting down, draining in-flight queries ...")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "lazyetld: drain window expired: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("lazyetld: drained, bye")
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and never finishes a
// request cannot hold them (and their goroutines) forever. The body and the
// response are deliberately unbounded: a cold query may run for minutes.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds every listener lazyetld runs.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lazyetld:", err)
	os.Exit(1)
}

// server is the HTTP surface over one warehouse. Separated from main so
// tests drive it through httptest.
type server struct {
	w   *warehouse.Warehouse
	mux *http.ServeMux

	clients *clientLimiter

	served   atomic.Int64 // queries answered successfully
	failed   atomic.Int64 // queries that returned an error
	rejected atomic.Int64 // requests bounced by the per-client limit

	// metricsMu serializes /metrics scrapes over one reused buffer, so a
	// steady-state scrape allocates nothing.
	metricsMu  sync.Mutex
	metricsBuf []byte
}

func newServer(w *warehouse.Warehouse, perClient int) *server {
	s := &server{w: w, clients: newClientLimiter(perClient)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.post("sql", s.handleQuery))
	s.mux.HandleFunc("/explain", s.post("sql", s.handleExplain))
	s.mux.HandleFunc("/prepare", s.post("sql", s.handlePrepare))
	s.mux.HandleFunc("/execute", s.post("id", s.handleExecute))
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

func (s *server) ServeHTTP(rw http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(rw, r) }

// request is the body of every POST endpoint: /query, /explain and /prepare
// read "sql"; /execute reads "id" and "params", which take JSON scalars —
// strings, numbers (integers stay int64, anything fractional becomes
// float64), booleans and null.
type request struct {
	SQL    string `json:"sql"`
	ID     string `json:"id"`
	Params []any  `json:"params"`
}

// post wraps every POST endpoint handler in what they share: the method check,
// the per-client in-flight cap (held for the whole request), the bounded
// body decode (one JSON object, followed by nothing but whitespace) and the
// required-field check ("sql" or "id").
func (s *server) post(field string, h func(http.ResponseWriter, *http.Request, *request)) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(rw, http.StatusMethodNotAllowed, errorResponse{"POST only"})
			return
		}
		client := clientKey(r)
		if !s.clients.acquire(client) {
			s.rejected.Add(1)
			writeJSON(rw, http.StatusTooManyRequests,
				errorResponse{fmt.Sprintf("client %s exceeds its in-flight query limit", client)})
			return
		}
		defer s.clients.release(client)

		var req request
		dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
		dec.UseNumber() // keep integer parameters exact (no float round-trip)
		err := dec.Decode(&req)
		if err == nil {
			if _, tail := dec.Token(); tail != io.EOF { // whitespace may follow, nothing else
				err = errors.New("trailing data after the JSON object")
			}
		}
		required := req.SQL
		if field == "id" {
			required = req.ID
		}
		if err == nil && required == "" {
			err = fmt.Errorf("missing %q field", field)
		}
		if err != nil {
			writeJSON(rw, http.StatusBadRequest, errorResponse{"bad request: " + err.Error()})
			return
		}
		h(rw, r, &req)
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) handleQuery(rw http.ResponseWriter, r *http.Request, req *request) {
	res, err := s.w.QueryContext(r.Context(), req.SQL)
	if s.counted(rw, err) {
		writeResult(rw, res, wantTrace(r))
	}
}

// counted records the outcome of a query in the served/failed counters and
// reports whether it succeeded; a failure is answered here (422).
func (s *server) counted(rw http.ResponseWriter, err error) bool {
	if err != nil {
		s.failed.Add(1)
		writeJSON(rw, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return false
	}
	s.served.Add(1)
	return true
}

// wantTrace reports whether the request asked for the span tree.
func wantTrace(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// explainResponse is the POST /explain answer: the query is executed (the
// per-scan skip tallies only exist at run time) but its rows are discarded;
// what comes back is the observability record.
type explainResponse struct {
	SQL       string            `json:"sql"`
	Plan      string            `json:"plan"`
	Scans     []plan.ScanReport `json:"scans"`
	RowCount  int               `json:"row_count"`
	ElapsedNS int64             `json:"elapsed_ns"`
}

func (s *server) handleExplain(rw http.ResponseWriter, r *http.Request, req *request) {
	// Uncached: a result-cache hit carries no per-scan skip tallies, and
	// /explain exists to observe a real execution.
	res, err := s.w.QueryUncached(r.Context(), req.SQL)
	if !s.counted(rw, err) {
		return
	}
	writeJSON(rw, http.StatusOK, explainResponse{
		SQL:       res.Trace.SQL(),
		Plan:      res.Trace.Optimized(),
		Scans:     res.Trace.Scans,
		RowCount:  res.Batch.NumRows(),
		ElapsedNS: res.Elapsed.Nanoseconds(),
	})
}

// prepareResponse is the POST /prepare answer: the handle /execute wants,
// plus the canonical statement text and its parameter count. The handle is
// that canonical text, so the daemon keeps no registry: /execute prepares
// the handle again, through the warehouse's statement cache, and gets the
// same statement whether or not the cache still holds it. Every spelling of
// a statement gets one handle, and a handle never expires.
type prepareResponse struct {
	ID        string `json:"id"`
	SQL       string `json:"sql"`
	NumParams int    `json:"num_params"`
}

func (s *server) handlePrepare(rw http.ResponseWriter, r *http.Request, req *request) {
	ps, err := s.w.Prepare(req.SQL)
	if err != nil {
		writeJSON(rw, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	writeJSON(rw, http.StatusOK, prepareResponse{ID: ps.SQL(), SQL: ps.SQL(), NumParams: ps.NumParams()})
}

func (s *server) handleExecute(rw http.ResponseWriter, r *http.Request, req *request) {
	ps, err := s.w.Prepare(req.ID)
	if err != nil {
		writeJSON(rw, http.StatusNotFound, errorResponse{fmt.Sprintf("no prepared statement %q", req.ID)})
		return
	}
	params := make([]column.Value, len(req.Params))
	for i, p := range req.Params {
		v, err := paramValue(p)
		if err != nil {
			writeJSON(rw, http.StatusBadRequest, errorResponse{fmt.Sprintf("param %d: %v", i, err)})
			return
		}
		params[i] = v
	}
	res, err := ps.ExecuteContext(r.Context(), params...)
	if s.counted(rw, err) {
		writeResult(rw, res, wantTrace(r))
	}
}

// paramValue converts one decoded JSON scalar to a column value.
func paramValue(p any) (column.Value, error) {
	switch x := p.(type) {
	case nil:
		return column.NewNull(column.Int64), nil
	case string:
		return column.NewString(x), nil
	case bool:
		return column.NewBool(x), nil
	case json.Number:
		if n, err := x.Int64(); err == nil {
			return column.NewInt64(n), nil
		}
		f, err := x.Float64()
		if err != nil {
			return column.Value{}, fmt.Errorf("bad number %q", x.String())
		}
		return column.NewFloat64(f), nil
	default:
		return column.Value{}, fmt.Errorf("unsupported parameter type %T", p)
	}
}

// statsResponse decorates warehouse stats with server-level counters.
type statsResponse struct {
	Server struct {
		Served   int64 `json:"served"`
		Failed   int64 `json:"failed"`
		Rejected int64 `json:"rejected"`
	} `json:"server"`
	Warehouse warehouse.Stats `json:"warehouse"`
}

func (s *server) handleStats(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	var out statsResponse
	out.Server.Served = s.served.Load()
	out.Server.Failed = s.failed.Load()
	out.Server.Rejected = s.rejected.Load()
	out.Warehouse = s.w.Stats()
	writeJSON(rw, http.StatusOK, out)
}

// handleMetrics serves the Prometheus text exposition. The buffer is
// retained between scrapes so a steady-state scrape performs no
// allocations beyond the ResponseWriter's own.
func (s *server) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(rw, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	b := s.metricsBuf[:0]
	b = s.w.AppendMetrics(b)
	b = obs.AppendCounter(b, "lazyetld_requests_served_total", "HTTP query/explain/execute requests answered successfully.", s.served.Load())
	b = obs.AppendCounter(b, "lazyetld_requests_failed_total", "HTTP query/explain/execute requests that returned an error.", s.failed.Load())
	b = obs.AppendCounter(b, "lazyetld_requests_rejected_total", "Requests bounced by the per-client in-flight limit.", s.rejected.Load())
	s.metricsBuf = b
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(b)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *server) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 200 once the daemon is serving. The warehouse
// is open before the listener starts, and a Refresh never stops queries, so
// there is no not-ready state to report.
func (s *server) handleReadyz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write([]byte("ready\n"))
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	enc := json.NewEncoder(rw)
	_ = enc.Encode(v)
}

// clientKey identifies the requesting client: the IP half of RemoteAddr.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// clientLimiter caps in-flight queries per client key.
type clientLimiter struct {
	mu    sync.Mutex
	limit int
	inUse map[string]int
}

func newClientLimiter(limit int) *clientLimiter {
	if limit <= 0 {
		limit = 4
	}
	return &clientLimiter{limit: limit, inUse: make(map[string]int)}
}

func (l *clientLimiter) acquire(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inUse[key] >= l.limit {
		return false
	}
	l.inUse[key]++
	return true
}

func (l *clientLimiter) release(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inUse[key] <= 1 {
		delete(l.inUse, key) // keep the map bounded by active clients
	} else {
		l.inUse[key]--
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/warehouse"
)

// newHTTPClient returns a client that keeps at most conns connections to
// the daemon, all persistent.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}}
}

// client issues a workload's requests to one daemon. load carries the
// measured requests over at most `connections` connections; ctl is a
// separate connection for /stats, /metrics and /prepare so bookkeeping
// never queues behind (or ahead of) the load.
type client struct {
	load, ctl *http.Client
	base      string
	pointID   string // prepared-statement handle of pointSQL
}

// do sends one query and reads the whole answer. Parsing is left to the
// verification pass after the measured window.
func (c *client) do(q *query, trace bool) (body []byte, status int, err error) {
	var path string
	var req any
	if q.sql != "" {
		path, req = "/query", map[string]string{"sql": q.sql}
	} else {
		path, req = "/execute", map[string]any{"id": c.pointID, "params": q.params}
	}
	if trace {
		path += "?trace=1"
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	return post(c.load, c.base+path, b)
}

func post(hc *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return out, err
}

// prepare registers pointSQL with the daemon.
func (c *client) prepare() error {
	b, _ := json.Marshal(map[string]string{"sql": pointSQL})
	out, status, err := post(c.ctl, c.base+"/prepare", b)
	if err != nil {
		return err
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &r); err != nil || status != http.StatusOK || r.ID == "" {
		return fmt.Errorf("prepare: status %d: %s", status, out)
	}
	c.pointID = r.ID
	return nil
}

// answer is the /query and /execute response shape.
type answer struct {
	Rows      [][]any       `json:"rows"`
	RowCount  int           `json:"row_count"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Trace     *obs.SpanNode `json:"trace"`
}

func parseAnswer(b []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// counters is the subset of GET /stats the per-layer metrics are computed
// from; field names are the daemon's JSON names.
type counters struct {
	Server struct {
		Rejected int64 `json:"rejected"`
	} `json:"server"`
	Warehouse whCounters `json:"warehouse"`
}

type whCounters struct {
	StoreBytes int64
	CacheBytes int64
	CacheStats string
	QueryCache struct {
		PlanHits, PlanMisses, ResultHits, ResultMisses int64
		ResultEvictions, ResultInvalidations           int64
	}
	Extraction struct {
		Extractions, CacheReads, BytesRead, SamplesServed int64
		RunsRead, RunRecords, RecordsSkipped              int64
	}
	Exec struct {
		Pipelines, PipelineFallbacks, FilterRowsIn, FilterRowsOut int64
		ScanRowsSkipped, JoinReorders, BytesSpilled, SpillNanos   int64
	}
	Mem struct {
		HighWater, Denials int64
	}
}

// recycler parses the recycler tallies out of the CacheStats line.
func (w *whCounters) recycler() (hits, misses, evictions int64) {
	var inval, decl, declB int64
	fmt.Sscanf(w.CacheStats, "hits=%d misses=%d evictions=%d invalidations=%d declined=%d/%dB",
		&hits, &misses, &evictions, &inval, &decl, &declB)
	return hits, misses, evictions
}

func (c *client) stats() (*counters, error) {
	b, err := get(c.ctl, c.base+"/stats")
	if err != nil {
		return nil, err
	}
	var s counters
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &s, nil
}

// inProcessCounters views an in-process warehouse's Stats through the same
// JSON shape GET /stats serves, so one delta function covers both.
func inProcessCounters(w *warehouse.Warehouse) *counters {
	var s counters
	b, err := json.Marshal(w.Stats())
	if err == nil {
		err = json.Unmarshal(b, &s.Warehouse)
	}
	if err != nil {
		panic(err) // Stats is plain data; only a code bug gets here
	}
	return &s
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns the /stats delta over the measured window into the
// counter-derived per-layer metrics. queries is the number of queries the
// window completed; gauges (bytes, high water) report the closing value.
func counterMetrics(a, b *counters, queries int, window time.Duration) map[string]float64 {
	wa, wb := &a.Warehouse, &b.Warehouse
	qa, qb := wa.QueryCache, wb.QueryCache
	xa, xb := wa.Extraction, wb.Extraction
	ea, eb := wa.Exec, wb.Exec
	ha, ma, va := wa.recycler()
	hb, mb, vb := wb.recycler()
	nq := int64(max(queries, 1))
	planHits, planMiss := qb.PlanHits-qa.PlanHits, qb.PlanMisses-qa.PlanMisses
	resHits, resMiss := qb.ResultHits-qa.ResultHits, qb.ResultMisses-qa.ResultMisses
	decoded, skipped := xb.Extractions-xa.Extractions, xb.RecordsSkipped-xa.RecordsSkipped
	return map[string]float64{
		"lazyetld.rejected":                float64(b.Server.Rejected - a.Server.Rejected),
		"warehouse.plan_cache_hit_ratio":   ratio(planHits, planHits+planMiss),
		"warehouse.result_cache_hit_ratio": ratio(resHits, resHits+resMiss),
		"warehouse.result_evictions":       float64(qb.ResultEvictions - qa.ResultEvictions),
		"warehouse.result_invalidations":   float64(qb.ResultInvalidations - qa.ResultInvalidations),
		"plan.pipelines":                   float64(eb.Pipelines - ea.Pipelines),
		"plan.fallback_ratio":              ratio(eb.PipelineFallbacks-ea.PipelineFallbacks, nq),
		"plan.join_reorders":               float64(eb.JoinReorders - ea.JoinReorders),
		"exec.filter_selectivity":          ratio(eb.FilterRowsOut-ea.FilterRowsOut, eb.FilterRowsIn-ea.FilterRowsIn),
		"exec.scan_rows_skipped":           float64(eb.ScanRowsSkipped - ea.ScanRowsSkipped),
		"exec.spilled_bytes":               float64(eb.BytesSpilled - ea.BytesSpilled),
		"exec.spill_ms":                    float64(eb.SpillNanos-ea.SpillNanos) / 1e6,
		"etl.bytes_read_per_query":         ratio(xb.BytesRead-xa.BytesRead, nq),
		"etl.runs_per_query":               ratio(xb.RunsRead-xa.RunsRead, nq),
		"etl.records_per_run":              ratio(xb.RunRecords-xa.RunRecords, xb.RunsRead-xa.RunsRead),
		"etl.records_skipped_ratio":        ratio(skipped, skipped+decoded),
		"etl.samples_served_per_s":         float64(xb.SamplesServed-xa.SamplesServed) / window.Seconds(),
		"recycler.hit_ratio":               ratio(hb-ha, hb-ha+mb-ma),
		"recycler.evictions":               float64(vb - va),
		"recycler.bytes":                   float64(wb.CacheBytes),
		"catalog.store_bytes":              float64(wb.StoreBytes),
		"mem.highwater_bytes":              float64(wb.Mem.HighWater),
		"mem.denials":                      float64(wb.Mem.Denials - wa.Mem.Denials),
	}
}

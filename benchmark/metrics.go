package main

// metricDef names one metric of the benchmark. The two lists below are the
// contract BENCHMARK.json repeats (a test keeps them equal); later issues
// cite these names.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported by every workload from its untraced run. What a
// "query" is differs by workload — a whole spawn-to-first-answer cycle on
// cold_start, one HTTP request on cold_scan and warm_serve, one in-process
// Query on refresh_mix — and so does the tail percentile (workloadDef.tail).
// Every timing is speed-normalised (speed.go): divided by the run's speed
// factor, so it reads as on the quiet sandbox.
//
// The sandbox's speed moves by a quarter for minutes at a time; normalised,
// ten seeds spread by 2-7 % of the median (warm_serve's latencies by 9-11 %)
// where the same runs as measured spread by 5-12 %, and the driver's own
// check once saw 25-30 % un-normalised (README.md has the tables), so the
// bounds stay at the contract's widest and a difference below the spread
// measured beside it is unresolved.
// lat_mean_ms is not here: in a closed loop it is the client count over
// throughput_qps, and on warm_serve's open loop, where a slower machine
// queues more than proportionally, it did not repeat within a tenth.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
}

// perLayer is reported by every workload from its traced run, as measured
// (not speed-normalised; driver.speed_factor is the run's factor); a metric
// a workload does not exercise reads 0 there. Sources: S = span self time
// folded by name, mean us per traced query; C = GET /stats delta over the
// measured window; D = measured by the driver; P = layer probe.
var perLayer = []metricDef{
	// Client-observed, per workload or request class (D).
	{name: "first_answer_ms", unit: "ms", better: "lower"},       // cold_start: spawn -> Q2 answer, lazy
	{name: "eager_first_answer_ms", unit: "ms", better: "lower"}, // cold_start: same, -mode eager on the day-0 slice
	{name: "point_p50_ms", unit: "ms", better: "lower"},
	{name: "point_p95_ms", unit: "ms", better: "lower"},
	{name: "cached_p50_ms", unit: "ms", better: "lower"},
	{name: "agg_p50_ms", unit: "ms", better: "lower"},
	{name: "hunt_p50_ms", unit: "ms", better: "lower"},
	{name: "join_p50_ms", unit: "ms", better: "lower"},
	{name: "fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "refresh_p50_ms", unit: "ms", better: "lower"}, // refresh_mix: Refresh() wall time incl. drain
	{name: "lat_mean_ms", unit: "ms", better: "lower"},    // all requests of the window
	{name: "lat_p90_ms", unit: "ms", better: "lower"},     // warm_serve: head-of-line blocking behind agg and fetch

	{name: "driver.late_p95_ms", unit: "ms", better: "lower"},
	{name: "driver.backlog_frac", unit: "ratio", better: "lower"},
	{name: "driver.sent", unit: "count", better: "higher"},
	{name: "driver.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "driver.speed_factor", unit: "x", better: "lower"}, // speedometer kernel median / quiet-sandbox reference

	{name: "lazyetld.edge_p50_ms", unit: "ms", better: "lower"},
	{name: "lazyetld.edge_fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "lazyetld.ready_ms", unit: "ms", better: "lower"},
	{name: "lazyetld.rejected", unit: "count", better: "lower"},
	{name: "lazyetld.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "lazyetld.cpu_util", unit: "ratio", better: "lower"},

	{name: "warehouse.admit_us", unit: "us", better: "lower"},
	{name: "warehouse.normalize_us", unit: "us", better: "lower"},
	{name: "warehouse.snapshot_us", unit: "us", better: "lower"},
	{name: "warehouse.cache_probe_us", unit: "us", better: "lower"},
	{name: "warehouse.plan_cache_us", unit: "us", better: "lower"},
	{name: "warehouse.emit_us", unit: "us", better: "lower"},
	{name: "warehouse.other_us", unit: "us", better: "lower"},
	{name: "warehouse.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "warehouse.result_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "warehouse.result_evictions", unit: "count", better: "lower"},
	{name: "warehouse.result_invalidations", unit: "count", better: "lower"},
	{name: "warehouse.refresh_drain_ms", unit: "ms", better: "lower"},

	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.normalize_ns", unit: "ns", better: "lower"},
	{name: "sql.parse_ns", unit: "ns", better: "lower"},

	{name: "plan.plan_us", unit: "us", better: "lower"},
	{name: "plan.build_ns", unit: "ns", better: "lower"},
	{name: "plan.pipelines", unit: "count", better: "higher"},
	{name: "plan.fallback_ratio", unit: "ratio", better: "lower"},
	{name: "plan.join_reorders", unit: "count", better: "higher"},

	{name: "exec.scan_us", unit: "us", better: "lower"},
	{name: "exec.filter_us", unit: "us", better: "lower"},
	{name: "exec.aggregate_us", unit: "us", better: "lower"},
	{name: "exec.join_build_us", unit: "us", better: "lower"},
	{name: "exec.join_us", unit: "us", better: "lower"},
	{name: "exec.sort_us", unit: "us", better: "lower"},
	{name: "exec.project_us", unit: "us", better: "lower"},
	{name: "exec.collect_us", unit: "us", better: "lower"},
	{name: "exec.restore_order_us", unit: "us", better: "lower"},
	{name: "exec.filter_selectivity", unit: "ratio", better: "lower"},
	{name: "exec.scan_rows_skipped", unit: "count", better: "higher"},
	{name: "exec.spilled_bytes", unit: "B", better: "lower"},
	{name: "exec.spill_ms", unit: "ms", better: "lower"},

	{name: "etl.metadata_us", unit: "us", better: "lower"},
	{name: "etl.read_us", unit: "us", better: "lower"},
	{name: "etl.decode_us", unit: "us", better: "lower"},
	{name: "etl.prefetch_stall_us", unit: "us", better: "lower"},
	{name: "etl.assemble_us", unit: "us", better: "lower"},
	{name: "etl.bytes_read_per_query", unit: "B", better: "lower"},
	{name: "etl.runs_per_query", unit: "count", better: "lower"},
	{name: "etl.records_per_run", unit: "count", better: "higher"},
	{name: "etl.records_skipped_ratio", unit: "ratio", better: "higher"},
	{name: "etl.samples_served_per_s", unit: "1/s", better: "higher"},
	{name: "etl.load_metadata_ms", unit: "ms", better: "lower"},
	{name: "etl.load_all_msamples_s", unit: "Msamples/s", better: "higher"},
	{name: "etl.extract_cold_msamples_s", unit: "Msamples/s", better: "higher"},
	{name: "etl.read_gap_x", unit: "x", better: "lower"},

	{name: "recycler.hit_ratio", unit: "ratio", better: "higher"},
	{name: "recycler.evictions", unit: "count", better: "lower"},
	{name: "recycler.bytes", unit: "B", better: "lower"},

	{name: "mseed.scan_headers_krecords_s", unit: "krecords/s", better: "higher"},
	{name: "mseed.steim2_decode_msamples_s", unit: "Msamples/s", better: "higher"},
	{name: "mseed.decode_gap_x", unit: "x", better: "lower"},

	{name: "repo.open_ms", unit: "ms", better: "lower"},

	{name: "catalog.store_bytes", unit: "B", better: "lower"},
	{name: "catalog.lazy_store_per_repo_byte", unit: "ratio", better: "lower"},
	{name: "catalog.eager_store_per_repo_byte", unit: "ratio", better: "lower"},

	{name: "mem.highwater_bytes", unit: "B", better: "lower"},
	{name: "mem.denials", unit: "count", better: "lower"},

	{name: "obs.metrics_scrape_us", unit: "us", better: "lower"},

	{name: "hw.seq_read_mb_s", unit: "MB/s", better: "higher"},
	{name: "hw.memmove_gb_s", unit: "GB/s", better: "higher"},

	{name: "trace.coverage_frac", unit: "ratio", better: "higher"},
	{name: "trace.queries", unit: "count", better: "higher"},
}

// workloadDef is one workload: its name, the one-line reason it exists
// (BENCHMARK.json repeats both), the fixed percentile lat_tail_ms reports
// on it, and the function that runs it.
//
// cold_start completes about a hundred cycles a run, so p75 is the highest
// percentile with at least ten samples beyond it;
// cold_scan and refresh_mix complete thousands of queries. warm_serve
// reports p75, where its light classes (cached, point, hunt, join: 75 % of
// the mix) end and agg begins: every percentile above it is time queued
// behind the other connection's agg or fetch, which grows faster than the
// machine slows and spread by 15-25 % over ten runs of the same code; p90
// stays in the traced run as lat_p90_ms.
type workloadDef struct {
	name, why string
	tail      float64
	run       func(*env, *fixture, runOpts) (*runResult, error)
}

var workloads = []workloadDef{
	{"cold_start", "fresh lazyetld per cycle, spawn to first Figure-1 Q2 answer: repo walk, header scan and metadata load count; caches do nothing", 75, coldStart},
	{"cold_scan", "closed loop, 2 clients, recycler far smaller than the fleet: every query pays read, Steim decode and assemble; warm-path caches are bypassed", 95, coldScan},
	{"warm_serve", "open loop at 250 req/s over a cache-resident warm set, six request classes: sql/plan/qcache/exec/JSON edge dominate; etl and mseed are bypassed", 75, warmServe},
	{"refresh_mix", "in-process reader beside an updater that touches/adds files and calls Refresh every 200 ms: cache purge, mtime staleness, re-extraction", 95, refreshMix},
}

// workloadNamed returns the workload's definition, or nil.
func workloadNamed(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

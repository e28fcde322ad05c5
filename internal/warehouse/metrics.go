package warehouse

import (
	"repro/internal/catalog"
	"repro/internal/obs"
)

// AppendMetrics renders the warehouse's full metric surface in Prometheus
// text exposition format, appending to b and returning it. Every figure
// comes from an atomic counter or an allocation-free snapshot, and the
// rendering appends into the caller's buffer — a scraper that reuses its
// buffer performs zero allocations per scrape at steady state
// (BenchmarkMetricsScrape pins this).
func (w *Warehouse) AppendMetrics(b []byte) []byte {
	m := &w.metrics

	b = obs.AppendHeader(b, "lazyetl_query_duration_seconds", "histogram", "Query wall time by class (cold, cached, prepared, refresh).")
	for c := obs.QueryClass(0); c < obs.NumClasses; c++ {
		b = obs.AppendHistogram(b, "lazyetl_query_duration_seconds", c.Label(), m.Query[c].Snapshot())
	}

	b = obs.AppendHeader(b, "lazyetl_queries_total", "counter", "Queries admitted for execution.")
	b = obs.AppendInt(b, "lazyetl_queries_total", "", w.queries.Load())
	b = obs.AppendHeader(b, "lazyetl_query_errors_total", "counter", "Queries that returned an error.")
	b = obs.AppendInt(b, "lazyetl_query_errors_total", "", m.Errors.Load())
	b = obs.AppendHeader(b, "lazyetl_slow_queries_total", "counter", "Queries at or over Options.SlowQueryThreshold.")
	b = obs.AppendInt(b, "lazyetl_slow_queries_total", "", m.Slow.Load())

	b = obs.AppendHeader(b, "lazyetl_inflight_queries", "gauge", "Queries currently holding an admission slot.")
	b = obs.AppendInt(b, "lazyetl_inflight_queries", "", int64(len(w.admit)))
	b = obs.AppendHeader(b, "lazyetl_admission_slots", "gauge", "Admission-control slot count (MaxConcurrentQueries).")
	b = obs.AppendInt(b, "lazyetl_admission_slots", "", int64(cap(w.admit)))

	ms := w.ledger.Snapshot()
	b = obs.AppendHeader(b, "lazyetl_mem_budget_bytes", "gauge", "Execution-memory budget (0 = unlimited).")
	b = obs.AppendInt(b, "lazyetl_mem_budget_bytes", "", ms.Budget)
	b = obs.AppendHeader(b, "lazyetl_mem_used_bytes", "gauge", "Execution-memory ledger bytes currently reserved.")
	b = obs.AppendInt(b, "lazyetl_mem_used_bytes", "", ms.Used)
	b = obs.AppendHeader(b, "lazyetl_mem_highwater_bytes", "gauge", "Peak concurrent execution-memory reservation.")
	b = obs.AppendInt(b, "lazyetl_mem_highwater_bytes", "", ms.HighWater)
	b = obs.AppendHeader(b, "lazyetl_mem_denials_total", "counter", "Memory reservations denied by the ledger.")
	b = obs.AppendInt(b, "lazyetl_mem_denials_total", "", ms.Denials)

	qs := w.qc.statsSnapshot()
	b = obs.AppendHeader(b, "lazyetl_plan_cache_hits_total", "counter", "Plan-cache hits.")
	b = obs.AppendInt(b, "lazyetl_plan_cache_hits_total", "", qs.PlanHits)
	b = obs.AppendHeader(b, "lazyetl_plan_cache_misses_total", "counter", "Plan-cache misses.")
	b = obs.AppendInt(b, "lazyetl_plan_cache_misses_total", "", qs.PlanMisses)
	b = obs.AppendHeader(b, "lazyetl_plan_cache_entries", "gauge", "Plans currently cached.")
	b = obs.AppendInt(b, "lazyetl_plan_cache_entries", "", int64(qs.PlanEntries))
	b = obs.AppendHeader(b, "lazyetl_result_cache_hits_total", "counter", "Result-cache hits.")
	b = obs.AppendInt(b, "lazyetl_result_cache_hits_total", "", qs.ResultHits)
	b = obs.AppendHeader(b, "lazyetl_result_cache_misses_total", "counter", "Result-cache misses.")
	b = obs.AppendInt(b, "lazyetl_result_cache_misses_total", "", qs.ResultMisses)
	b = obs.AppendHeader(b, "lazyetl_result_cache_evictions_total", "counter", "Result-cache entries evicted under pressure.")
	b = obs.AppendInt(b, "lazyetl_result_cache_evictions_total", "", qs.ResultEvictions)
	b = obs.AppendHeader(b, "lazyetl_result_cache_invalidations_total", "counter", "Result-cache entries invalidated by source-file changes.")
	b = obs.AppendInt(b, "lazyetl_result_cache_invalidations_total", "", qs.ResultInvalidations)
	b = obs.AppendHeader(b, "lazyetl_result_cache_entries", "gauge", "Results currently cached.")
	b = obs.AppendInt(b, "lazyetl_result_cache_entries", "", int64(qs.ResultEntries))
	b = obs.AppendHeader(b, "lazyetl_result_cache_bytes", "gauge", "Ledger bytes held by cached results.")
	b = obs.AppendInt(b, "lazyetl_result_cache_bytes", "", qs.ResultBytes)

	cs := w.engine.Cache().Stats()
	b = obs.AppendHeader(b, "lazyetl_recycler_hits_total", "counter", "Recycler-cache record hits.")
	b = obs.AppendInt(b, "lazyetl_recycler_hits_total", "", cs.Hits)
	b = obs.AppendHeader(b, "lazyetl_recycler_misses_total", "counter", "Recycler-cache record misses.")
	b = obs.AppendInt(b, "lazyetl_recycler_misses_total", "", cs.Misses)
	b = obs.AppendHeader(b, "lazyetl_recycler_evictions_total", "counter", "Recycler-cache evictions.")
	b = obs.AppendInt(b, "lazyetl_recycler_evictions_total", "", cs.Evictions)
	b = obs.AppendHeader(b, "lazyetl_recycler_invalidations_total", "counter", "Recycler-cache entries invalidated as stale.")
	b = obs.AppendInt(b, "lazyetl_recycler_invalidations_total", "", cs.Invalidations)
	b = obs.AppendHeader(b, "lazyetl_recycler_bytes", "gauge", "Bytes held by the recycler cache.")
	b = obs.AppendInt(b, "lazyetl_recycler_bytes", "", w.engine.Cache().Used())

	xs := w.engine.ExtractionStats()
	b = obs.AppendHeader(b, "lazyetl_extract_records_total", "counter", "Records decoded from files by lazy extraction.")
	b = obs.AppendInt(b, "lazyetl_extract_records_total", "", xs.Extractions)
	b = obs.AppendHeader(b, "lazyetl_extract_cache_reads_total", "counter", "Records served from the recycler instead of files.")
	b = obs.AppendInt(b, "lazyetl_extract_cache_reads_total", "", xs.CacheReads)
	b = obs.AppendHeader(b, "lazyetl_extract_bytes_read_total", "counter", "Bytes read from repository files.")
	b = obs.AppendInt(b, "lazyetl_extract_bytes_read_total", "", xs.BytesRead)
	b = obs.AppendHeader(b, "lazyetl_extract_runs_total", "counter", "Coalesced reads issued (one ReadAt each).")
	b = obs.AppendInt(b, "lazyetl_extract_runs_total", "", xs.RunsRead)
	b = obs.AppendHeader(b, "lazyetl_extract_records_skipped_total", "counter", "Records zone-map pruning dropped before read/decode.")
	b = obs.AppendInt(b, "lazyetl_extract_records_skipped_total", "", xs.RecordsSkipped)
	b = obs.AppendHeader(b, "lazyetl_extract_decode_seconds_total", "counter", "Time spent parsing and Steim-decoding run bytes.")
	b = obs.AppendFloat(b, "lazyetl_extract_decode_seconds_total", "", float64(xs.DecodeNanos)/1e9)
	b = obs.AppendHeader(b, "lazyetl_extract_prefetched_runs_total", "counter", "Runs extracted ahead of the consumer by prefetch workers.")
	b = obs.AppendInt(b, "lazyetl_extract_prefetched_runs_total", "", xs.PrefetchedRuns)
	b = obs.AppendHeader(b, "lazyetl_extract_prefetch_stall_seconds_total", "counter", "Consumer time stalled waiting on in-flight prefetches.")
	b = obs.AppendFloat(b, "lazyetl_extract_prefetch_stall_seconds_total", "", float64(xs.PrefetchStallNanos)/1e9)

	es := w.exec.Snapshot()
	b = obs.AppendHeader(b, "lazyetl_pipelines_total", "counter", "Plans executed as push pipelines.")
	b = obs.AppendInt(b, "lazyetl_pipelines_total", "", es.Pipelines)
	b = obs.AppendHeader(b, "lazyetl_spilled_partitions_total", "counter", "Join build partitions spilled to disk.")
	b = obs.AppendInt(b, "lazyetl_spilled_partitions_total", "", es.PartitionsSpilled)
	b = obs.AppendHeader(b, "lazyetl_spilled_bytes_total", "counter", "Bytes spilled to disk under memory pressure.")
	b = obs.AppendInt(b, "lazyetl_spilled_bytes_total", "", es.BytesSpilled)
	b = obs.AppendHeader(b, "lazyetl_spill_seconds_total", "counter", "Time spent writing spill files and rebuilding spilled partitions.")
	b = obs.AppendFloat(b, "lazyetl_spill_seconds_total", "", float64(es.SpillNanos)/1e9)
	b = obs.AppendHeader(b, "lazyetl_join_reorders_total", "counter", "Join spines rewritten by stats-driven ordering.")
	b = obs.AppendInt(b, "lazyetl_join_reorders_total", "", es.JoinReorders)
	b = obs.AppendHeader(b, "lazyetl_scan_rows_skipped_total", "counter", "Scan rows zone maps proved irrelevant and never fed to a pipeline.")
	b = obs.AppendInt(b, "lazyetl_scan_rows_skipped_total", "", es.ScanRowsSkipped)

	// Read Bytes/Rows straight off the live store (RLock, no allocation)
	// rather than through a Snapshot, whose map copies would defeat the
	// zero-allocation scrape path.
	b = obs.AppendHeader(b, "lazyetl_store_bytes", "gauge", "In-memory footprint of the loaded tables.")
	b = obs.AppendInt(b, "lazyetl_store_bytes", "", w.store.Bytes())
	b = obs.AppendHeader(b, "lazyetl_store_data_rows", "gauge", "Rows materialized in the data table.")
	b = obs.AppendInt(b, "lazyetl_store_data_rows", "", int64(w.store.Rows(catalog.TableData)))

	b = obs.AppendHeader(b, "lazyetl_ready", "gauge", "1 when serving normally, 0 while a refresh drains and rebuilds.")
	ready := int64(0)
	if w.Ready() {
		ready = 1
	}
	b = obs.AppendInt(b, "lazyetl_ready", "", ready)
	return b
}

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
	b = obs.AppendHeader(b, "lazyetl_admit_wait_seconds", "histogram", "Time a query waited for an admission slot.")
	b = obs.AppendHistogram(b, "lazyetl_admit_wait_seconds", "", m.Admit.Snapshot())

	b = obs.AppendCounter(b, "lazyetl_queries_total", "Queries admitted for execution.", w.queries.Load())
	b = obs.AppendCounter(b, "lazyetl_query_errors_total", "Queries that returned an error.", m.Errors.Load())
	b = obs.AppendCounter(b, "lazyetl_query_cancelled_total", "Queries their context cancelled.", m.Cancelled.Load())
	b = obs.AppendCounter(b, "lazyetl_query_deadline_exceeded_total", "Queries past their context's deadline.", m.DeadlineExceeded.Load())
	b = obs.AppendCounter(b, "lazyetl_query_panics_recovered_total", "Queries failed by a panic the engine recovered.", m.Panics.Load())
	b = obs.AppendCounter(b, "lazyetl_slow_queries_total", "Queries at or over Options.SlowQueryThreshold.", m.Slow.Load())

	b = obs.AppendGauge(b, "lazyetl_inflight_queries", "Queries currently holding an admission slot.", int64(len(w.admit)))
	b = obs.AppendGauge(b, "lazyetl_admission_slots", "Admission-control slot count (MaxConcurrentQueries).", int64(cap(w.admit)))

	ms := w.ledger.Snapshot()
	b = obs.AppendGauge(b, "lazyetl_mem_budget_bytes", "Execution-memory budget (0 = unlimited).", ms.Budget)
	b = obs.AppendGauge(b, "lazyetl_mem_used_bytes", "Execution-memory ledger bytes currently reserved.", ms.Used)
	b = obs.AppendGauge(b, "lazyetl_mem_highwater_bytes", "Peak concurrent execution-memory reservation.", ms.HighWater)
	b = obs.AppendCounter(b, "lazyetl_mem_denials_total", "Memory reservations denied by the ledger.", ms.Denials)

	qs := w.qc.statsSnapshot()
	b = obs.AppendCounter(b, "lazyetl_result_cache_hits_total", "Result-cache hits.", qs.ResultHits)
	b = obs.AppendCounter(b, "lazyetl_result_cache_misses_total", "Result-cache misses.", qs.ResultMisses)
	b = obs.AppendCounter(b, "lazyetl_result_cache_evictions_total", "Reused (protected) result-cache entries evicted under byte pressure.", qs.ResultEvictions)
	b = obs.AppendCounter(b, "lazyetl_result_cache_unreused_total", "Result-cache entries dropped from probation without a hit.", qs.ResultUnreused)
	b = obs.AppendCounter(b, "lazyetl_result_cache_invalidations_total", "Result-cache entries invalidated by source-file changes.", qs.ResultInvalidations)
	b = obs.AppendGauge(b, "lazyetl_result_cache_entries", "Results currently cached.", int64(qs.ResultEntries))
	b = obs.AppendGauge(b, "lazyetl_result_cache_bytes", "Ledger bytes held by cached results.", qs.ResultBytes)

	cs := w.engine.Cache().Stats()
	b = obs.AppendCounter(b, "lazyetl_recycler_hits_total", "Recycler-cache record hits.", cs.Hits)
	b = obs.AppendCounter(b, "lazyetl_recycler_misses_total", "Recycler-cache record misses.", cs.Misses)
	b = obs.AppendCounter(b, "lazyetl_recycler_evictions_total", "Recycler-cache records dropped for room.", cs.Evictions)
	b = obs.AppendCounter(b, "lazyetl_recycler_invalidations_total", "Recycler-cache entries invalidated as stale.", cs.Invalidations)
	b = obs.AppendGauge(b, "lazyetl_recycler_bytes", "Bytes held by the recycler cache.", w.engine.Cache().Used())

	xs := w.engine.ExtractionStats()
	b = obs.AppendCounter(b, "lazyetl_extract_records_total", "Records decoded from files by lazy extraction.", xs.Extractions)
	b = obs.AppendCounter(b, "lazyetl_extract_cache_reads_total", "Records served from the recycler instead of files.", xs.CacheReads)
	b = obs.AppendCounter(b, "lazyetl_extract_bytes_read_total", "Bytes read from repository files.", xs.BytesRead)
	b = obs.AppendCounter(b, "lazyetl_extract_runs_total", "Coalesced reads issued (one ReadAt each).", xs.RunsRead)
	b = obs.AppendCounter(b, "lazyetl_extract_records_skipped_total", "Records zone-map pruning dropped before read/decode.", xs.RecordsSkipped)
	b = obs.AppendCounter(b, "lazyetl_extract_records_answered_total", "Records an ungrouped aggregate took from their zone entries, never read or decoded.", xs.RecordsAnswered)
	b = obs.AppendSecondsCounter(b, "lazyetl_extract_decode_seconds_total", "Time spent parsing and Steim-decoding run bytes.", xs.DecodeNanos)
	b = obs.AppendCounter(b, "lazyetl_extract_prefetched_runs_total", "Runs extracted ahead of the consumer by prefetch workers.", xs.PrefetchedRuns)
	b = obs.AppendSecondsCounter(b, "lazyetl_extract_prefetch_stall_seconds_total", "Consumer time stalled waiting on in-flight prefetches.", xs.PrefetchStallNanos)

	es := w.exec.Snapshot()
	b = obs.AppendCounter(b, "lazyetl_pipelines_total", "Plans executed as push pipelines.", es.Pipelines)
	b = obs.AppendCounter(b, "lazyetl_spilled_partitions_total", "Join build partitions spilled to disk.", es.PartitionsSpilled)
	b = obs.AppendCounter(b, "lazyetl_spilled_bytes_total", "Bytes spilled to disk under memory pressure.", es.BytesSpilled)
	b = obs.AppendSecondsCounter(b, "lazyetl_spill_seconds_total", "Time spent writing spill files and rebuilding spilled partitions.", es.SpillNanos)
	b = obs.AppendCounter(b, "lazyetl_scan_rows_skipped_total", "Build-table rows an index-probed join never looked at: outside every key range it searched.", es.ScanRowsSkipped)

	sn := w.store.Snapshot()
	b = obs.AppendGauge(b, "lazyetl_store_bytes", "In-memory footprint of the loaded tables.", sn.Bytes())
	return obs.AppendGauge(b, "lazyetl_store_data_rows", "Rows materialized in the data table.", int64(sn.Rows(catalog.TableData)))
}

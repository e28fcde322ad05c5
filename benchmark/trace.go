package main

import (
	"strings"

	"repro/internal/obs"
)

// spanBuckets maps a span name (exact, or by prefix for the operator spans
// that carry their predicate or key in the name) to the per-layer metric
// its self time is folded into. Order matters: first match wins.
var spanBuckets = []struct {
	name   string
	prefix bool
	metric string
}{
	{"admit", false, "warehouse.admit_us"},
	{"normalize", false, "warehouse.normalize_us"},
	{"snapshot", false, "warehouse.snapshot_us"},
	{"cache-probe", false, "warehouse.cache_probe_us"},
	{"plan-cache", false, "warehouse.plan_cache_us"},
	{"emit", false, "warehouse.emit_us"},
	{"parse", false, "sql.parse_us"},
	{"plan", false, "plan.plan_us"},
	{"metadata", false, "etl.metadata_us"},
	{"read", false, "etl.read_us"},
	{"decode", false, "etl.decode_us"},
	{"prefetch-stall", false, "etl.prefetch_stall_us"},
	{"assemble", false, "etl.assemble_us"},
	{"scan ", true, "exec.scan_us"},
	{"stage filter", true, "exec.filter_us"},
	{"filter ", true, "exec.filter_us"},
	{"stage aggregate", false, "exec.aggregate_us"},
	{"aggregate", false, "exec.aggregate_us"},
	{"join-build", true, "exec.join_build_us"},
	{"stage probe", true, "exec.join_us"},
	{"join ", true, "exec.join_us"},
	{"sort", false, "exec.sort_us"},
	{"project", false, "exec.project_us"},
	{"stage collect", false, "exec.collect_us"},
	{"restore-order", false, "exec.restore_order_us"},
}

// otherBucket takes the self time of spans no bucket names: the "query"
// root, "execute", the extraction containers — time the tree does not
// attribute to a layer.
const otherBucket = "warehouse.other_us"

func bucketOf(name string) string {
	for _, b := range spanBuckets {
		if name == b.name || (b.prefix && strings.HasPrefix(name, b.name)) {
			return b.metric
		}
	}
	return otherBucket
}

// foldSelf adds the self time (ns) of every span of the tree into
// into[bucket]. A span's self time is its own time minus what its
// children cover, floored at zero: the children of "execute" and of the
// extraction spans accumulate across workers, so their sum can exceed the
// parent's wall time. The whole "metadata" subtree (the metadata sub-plan
// lazy ETL evaluates to find the qualifying records) counts as one span.
func foldSelf(n *obs.SpanNode, into map[string]int64) {
	if n == nil {
		return
	}
	if n.Name == "metadata" {
		into[bucketOf(n.Name)] += int64(n.Duration())
		return
	}
	var kids int64
	for _, c := range n.Children {
		kids += int64(c.Duration())
		foldSelf(c, into)
	}
	if self := n.Nanos - kids; self > 0 {
		into[bucketOf(n.Name)] += self
	}
}

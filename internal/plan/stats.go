package plan

import (
	"sync"

	"repro/internal/exec"
)

// ExecStats accumulates operator-level execution counters across queries.
// Execute records into it when the Env carries one, and one ExecStats may be
// shared by concurrent queries: the counters are kept in the ExecSnapshot a
// reader gets, under one mutex — a record call runs once per operator per
// query, never per row — so a snapshot is mutually consistent. The
// warehouse owns one per instance and surfaces a Snapshot through its Stats.
type ExecStats struct {
	mu sync.Mutex
	c  ExecSnapshot
}

// ExecSnapshot is an ExecStats' counters; Snapshot returns a copy.
type ExecSnapshot struct {
	// Hash-join counters. A join answered by an index probe builds nothing
	// and counts in none of them (its kept-out rows are ScanRowsSkipped).
	JoinBuilds          int64 // hash joins executed
	JoinBuildPartitions int64 // total build partitions across joins
	JoinParallelBuilds  int64 // joins whose build was radix-partitioned
	JoinBuildRows       int64
	JoinProbeRows       int64
	JoinMatches         int64

	RadixSorts      int64 // sorts that took the key-specialized radix path
	ComparatorSorts int64 // sorts that took the generic comparator path
	SortRows        int64

	// Memory-governed spill counters. The grace-hash join is the one
	// operator that degrades to disk under budget pressure, so every
	// spilled partition is a join build partition.
	PartitionsSpilled int64
	JoinSpills        int64 // joins that spilled at least one partition
	RowsSpilled       int64
	BytesSpilled      int64
	SpillNanos        int64

	// Push-pipeline counters: pipelined plan executions and the morsels
	// they drove. The filter counters sum rows into and out of every
	// pipelined filter stage — per-operator selectivity for the stats
	// surface.
	Pipelines       int64
	PipelineMorsels int64
	FilterRowsIn    int64
	FilterRowsOut   int64

	// ScanRowsSkipped counts the scan rows never looked at: the rows of an
	// index-probed join's build table outside every probed key's range.
	ScanRowsSkipped int64
	// JoinReorders is always 0: joins run in the order the SQL states them.
	// It stays on GET /stats only because the benchmark client decodes it;
	// ROADMAP F(i), the next change to the benchmark, drops it.
	JoinReorders int64
}

// Snapshot copies the counters.
func (s *ExecStats) Snapshot() ExecSnapshot {
	if s == nil {
		return ExecSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// record applies one operator's counts to the counters under the lock; a nil
// ExecStats records nothing.
func (s *ExecStats) record(apply func(c *ExecSnapshot)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	apply(&s.c)
}

// recordScanSkip folds the build-table rows one index probe never looked at
// into the counters.
func (s *ExecStats) recordScanSkip(rows int64) {
	s.record(func(c *ExecSnapshot) { c.ScanRowsSkipped += rows })
}

// recordPipeline folds one pipelined plan execution into the counters.
func (s *ExecStats) recordPipeline(morsels int) {
	s.record(func(c *ExecSnapshot) {
		c.Pipelines++
		c.PipelineMorsels += int64(morsels)
	})
}

// recordFilterStage folds one pipelined filter stage's row counters.
func (s *ExecStats) recordFilterStage(in, out int64) {
	s.record(func(c *ExecSnapshot) {
		c.FilterRowsIn += in
		c.FilterRowsOut += out
	})
}

// recordJoin folds one join's stats into the counters.
func (s *ExecStats) recordJoin(js exec.JoinStats) {
	s.record(func(c *ExecSnapshot) {
		c.JoinBuilds++
		c.JoinBuildPartitions += int64(js.Partitions)
		if js.ParallelBuild {
			c.JoinParallelBuilds++
		}
		c.JoinBuildRows += int64(js.BuildRows)
		c.JoinProbeRows += int64(js.ProbeRows)
		c.JoinMatches += int64(js.Matches)
		if js.SpilledPartitions > 0 {
			c.JoinSpills++
			c.PartitionsSpilled += int64(js.SpilledPartitions)
			c.RowsSpilled += int64(js.SpilledRows)
			c.BytesSpilled += js.SpilledBytes
			c.SpillNanos += js.SpillNanos
		}
	})
}

// recordSort folds one sort's stats into the counters.
func (s *ExecStats) recordSort(ss exec.SortStats) {
	s.record(func(c *ExecSnapshot) {
		switch ss.Strategy {
		case exec.SortStrategyRadix:
			c.RadixSorts++
		case exec.SortStrategyComparator:
			c.ComparatorSorts++
		default:
			return // no-op sorts don't count
		}
		c.SortRows += int64(ss.Rows)
	})
}

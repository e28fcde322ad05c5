package plan

import (
	"sync/atomic"

	"repro/internal/exec"
)

// ExecStats accumulates operator-level execution counters across queries.
// Execute records into it when the Env carries one; all fields are atomic,
// so one ExecStats may be shared by concurrent queries. The warehouse owns
// one per instance and surfaces a Snapshot through its Stats.
type ExecStats struct {
	joinBuilds          atomic.Int64
	joinBuildPartitions atomic.Int64
	joinParallelBuilds  atomic.Int64
	joinBuildRows       atomic.Int64
	joinProbeRows       atomic.Int64
	joinMatches         atomic.Int64

	radixSorts      atomic.Int64
	comparatorSorts atomic.Int64
	sortRunsMerged  atomic.Int64
	sortRows        atomic.Int64

	aggregations atomic.Int64
	aggGroups    atomic.Int64

	joinSpills            atomic.Int64
	joinPartitionsSpilled atomic.Int64
	rowsSpilled           atomic.Int64
	bytesSpilled          atomic.Int64
	spillNanos            atomic.Int64

	pipelines       atomic.Int64
	pipelineMorsels atomic.Int64
	filterRowsIn    atomic.Int64
	filterRowsOut   atomic.Int64

	scanRangesSkipped atomic.Int64
	scanRowsSkipped   atomic.Int64
	joinReorders      atomic.Int64
}

// ExecSnapshot is a point-in-time copy of ExecStats counters.
type ExecSnapshot struct {
	JoinBuilds          int64 // hash joins executed
	JoinBuildPartitions int64 // total build partitions across joins
	JoinParallelBuilds  int64 // joins whose build was radix-partitioned
	JoinBuildRows       int64
	JoinProbeRows       int64
	JoinMatches         int64

	RadixSorts      int64 // sorts that took the key-specialized radix path
	ComparatorSorts int64 // sorts that took the generic comparator path
	SortRunsMerged  int64 // morsel runs merged by parallel sorts
	SortRows        int64

	Aggregations int64 // aggregations executed
	AggGroups    int64 // total output groups across them

	// Memory-governed spill counters. The grace-hash join is the one
	// operator that degrades to disk under budget pressure, so
	// PartitionsSpilled and JoinPartitionsSpilled count the same build
	// partitions (both names are part of the stats surface).
	PartitionsSpilled     int64
	JoinSpills            int64 // joins that spilled at least one partition
	JoinPartitionsSpilled int64
	RowsSpilled           int64
	BytesSpilled          int64
	SpillNanos            int64

	// Push-pipeline counters: pipelined plan executions and the morsels
	// they drove. The filter counters sum rows into and out of every
	// pipelined filter stage — per-operator selectivity for the stats
	// surface.
	Pipelines       int64
	PipelineMorsels int64
	FilterRowsIn    int64
	FilterRowsOut   int64

	// Zone-map skipping counters: scan zone ranges (and the rows inside
	// them) proven empty against pushed-down predicates and never fed to a
	// pipeline, plus join spines rewritten into a cheaper build order.
	ScanRangesSkipped int64
	ScanRowsSkipped   int64
	JoinReorders      int64
}

// Snapshot copies the counters.
func (s *ExecStats) Snapshot() ExecSnapshot {
	if s == nil {
		return ExecSnapshot{}
	}
	return ExecSnapshot{
		JoinBuilds:          s.joinBuilds.Load(),
		JoinBuildPartitions: s.joinBuildPartitions.Load(),
		JoinParallelBuilds:  s.joinParallelBuilds.Load(),
		JoinBuildRows:       s.joinBuildRows.Load(),
		JoinProbeRows:       s.joinProbeRows.Load(),
		JoinMatches:         s.joinMatches.Load(),
		RadixSorts:          s.radixSorts.Load(),
		ComparatorSorts:     s.comparatorSorts.Load(),
		SortRunsMerged:      s.sortRunsMerged.Load(),
		SortRows:            s.sortRows.Load(),

		Aggregations: s.aggregations.Load(),
		AggGroups:    s.aggGroups.Load(),

		PartitionsSpilled:     s.joinPartitionsSpilled.Load(),
		JoinSpills:            s.joinSpills.Load(),
		JoinPartitionsSpilled: s.joinPartitionsSpilled.Load(),
		RowsSpilled:           s.rowsSpilled.Load(),
		BytesSpilled:          s.bytesSpilled.Load(),
		SpillNanos:            s.spillNanos.Load(),

		Pipelines:       s.pipelines.Load(),
		PipelineMorsels: s.pipelineMorsels.Load(),
		FilterRowsIn:    s.filterRowsIn.Load(),
		FilterRowsOut:   s.filterRowsOut.Load(),

		ScanRangesSkipped: s.scanRangesSkipped.Load(),
		ScanRowsSkipped:   s.scanRowsSkipped.Load(),
		JoinReorders:      s.joinReorders.Load(),
	}
}

// recordScanSkip folds one scan's zone-range skipping into the counters.
func (s *ExecStats) recordScanSkip(ranges int, rows int64) {
	if s == nil {
		return
	}
	s.scanRangesSkipped.Add(int64(ranges))
	s.scanRowsSkipped.Add(rows)
}

// RecordJoinReorder counts one join spine rewritten into a cheaper order.
// The warehouse calls it when ReorderJoins changes a plan.
func (s *ExecStats) RecordJoinReorder() {
	if s == nil {
		return
	}
	s.joinReorders.Add(1)
}

// recordPipeline folds one pipelined plan execution into the counters.
func (s *ExecStats) recordPipeline(morsels int) {
	if s == nil {
		return
	}
	s.pipelines.Add(1)
	s.pipelineMorsels.Add(int64(morsels))
}

// recordFilterStage folds one pipelined filter stage's row counters.
func (s *ExecStats) recordFilterStage(in, out int64) {
	if s == nil {
		return
	}
	s.filterRowsIn.Add(in)
	s.filterRowsOut.Add(out)
}

// recordJoin folds one join's stats into the counters.
func (s *ExecStats) recordJoin(js exec.JoinStats) {
	if s == nil {
		return
	}
	s.joinBuilds.Add(1)
	s.joinBuildPartitions.Add(int64(js.Partitions))
	if js.ParallelBuild {
		s.joinParallelBuilds.Add(1)
	}
	s.joinBuildRows.Add(int64(js.BuildRows))
	s.joinProbeRows.Add(int64(js.ProbeRows))
	s.joinMatches.Add(int64(js.Matches))
	if js.SpilledPartitions > 0 {
		s.joinSpills.Add(1)
		s.joinPartitionsSpilled.Add(int64(js.SpilledPartitions))
		s.rowsSpilled.Add(int64(js.SpilledRows))
		s.bytesSpilled.Add(js.SpilledBytes)
		s.spillNanos.Add(js.SpillNanos)
	}
}

// recordAgg folds one aggregation's output group count into the counters.
func (s *ExecStats) recordAgg(groups int) {
	if s == nil {
		return
	}
	s.aggregations.Add(1)
	s.aggGroups.Add(int64(groups))
}

// recordSort folds one sort's stats into the counters.
func (s *ExecStats) recordSort(ss exec.SortStats) {
	if s == nil {
		return
	}
	switch ss.Strategy {
	case exec.SortStrategyRadix:
		s.radixSorts.Add(1)
	case exec.SortStrategyComparator:
		s.comparatorSorts.Add(1)
	default:
		return // no-op sorts don't count
	}
	if ss.Runs > 1 {
		s.sortRunsMerged.Add(int64(ss.Runs))
	}
	s.sortRows.Add(int64(ss.Rows))
}

package warehouse

// End-to-end memory governance: a warehouse opened with a MemoryBudget
// small enough to spill every join build and to deny the aggregation sink
// must answer the paper's join + GROUP BY workloads identically to an
// unbounded warehouse at every worker count, report the spill and ledger
// counters through Stats, and leave no spill files or reservations behind.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// spillQueries exercise both governed operators: a dataview aggregation
// whose extraction and high-cardinality GROUP BY press on the budget (its
// metadata join is an index probe and builds nothing), and a two-key join of
// the records table with itself — no index answers two keys, so it hashes —
// feeding a grouped aggregate; that build spills.
var spillQueries = []string{
	`SELECT R.seqno, COUNT(*), MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value)
	 FROM mseed.dataview GROUP BY R.seqno`,
	`SELECT r.seqno, COUNT(*), SUM(g.num_samples), MAX(g.start_time)
	 FROM mseed.records r JOIN mseed.records g ON r.file_id = g.file_id AND r.seqno = g.seqno
	 GROUP BY r.seqno`,
}

func TestMemoryBudgetForcesSpillWithIdenticalResults(t *testing.T) {
	dir := genRepo(t, 3000)
	unbounded := openWH(t, dir, Lazy)
	for _, workers := range []int{1, 2, 8} {
		w, err := Open(dir, Options{Mode: Lazy, Workers: workers, MemoryBudget: 4 << 10})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, q := range spillQueries {
			want, err := unbounded.Query(q)
			if err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			got, err := w.Query(q)
			if err != nil {
				t.Fatalf("workers=%d budget=4KiB: %v", workers, err)
			}
			assertSameResult(t, q, want.Batch, got.Batch)
		}
		st := w.Stats()
		if st.Exec.PartitionsSpilled == 0 || st.Exec.BytesSpilled == 0 {
			t.Fatalf("workers=%d: tiny budget must spill the join builds; exec stats = %+v", workers, st.Exec)
		}
		if st.Mem.Budget != 4<<10 || st.Mem.HighWater == 0 || st.Mem.Denials == 0 {
			t.Fatalf("workers=%d: budget pressure must show as denials and a high-water mark; ledger = %+v", workers, st.Mem)
		}
		if st.Mem.Used != st.CacheBytes+st.QueryCache.ResultBytes {
			t.Fatalf("workers=%d: ledger not drained: used=%d, recycler %d + result cache %d",
				workers, st.Mem.Used, st.CacheBytes, st.QueryCache.ResultBytes)
		}
		// The tiny global budget also pressures the recycler: its stats
		// string must report declined admissions.
		if !strings.Contains(st.CacheStats, "declined=") {
			t.Fatalf("cache stats must report declined bytes: %q", st.CacheStats)
		}
	}
	// The unbounded warehouse must never have spilled.
	if st := unbounded.Stats(); st.Exec.PartitionsSpilled != 0 {
		t.Fatalf("unbounded warehouse spilled: %+v", st.Exec)
	}
}

// TestSpillDirsRemovedAfterQueries checks every exit path of a spilling
// query — success, a planning error, and a spill write that fails — leaves
// no spill directory behind and every ledger at its idle value.
func TestSpillDirsRemovedAfterQueries(t *testing.T) {
	dir := genRepo(t, 2000)
	// Spill dirs are created under the system temp dir; give this test a
	// private one so leftovers are unambiguous.
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	w, err := Open(dir, Options{Mode: Lazy, Workers: 2, MemoryBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range spillQueries {
		if _, err := w.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Exec.PartitionsSpilled == 0 {
		t.Fatal("setup: the queries must have spilled")
	}
	requireIdle(t, "after spilling queries", w, root)

	// A failing query must also leave nothing behind.
	if _, err := w.Query(`SELECT nonsense FROM mseed.dataview GROUP BY nonsense`); err == nil {
		t.Fatal("expected query error")
	}
	requireIdle(t, "after a failed query", w, root)

	// Injected spill-write failure: with the temp dir gone, the first
	// partition that tries to spill cannot create its file. The join build
	// fails mid-query; its reservations and the query's child ledger must
	// still come back. Uncached: whether the result cache kept the answer
	// of the first run depends on entry sizes this test is not about.
	t.Setenv("TMPDIR", filepath.Join(root, "missing"))
	_, err = w.QueryUncached(context.Background(), spillQueries[1])
	if err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("a spill that cannot write must fail the query, got %v", err)
	}
	requireIdle(t, "after a failed spill write", w, root)
	t.Setenv("TMPDIR", root)
	if _, err := w.Query(spillQueries[1]); err != nil {
		t.Fatalf("the warehouse must keep serving after a failed spill: %v", err)
	}
	requireIdle(t, "after recovery", w, root)
}

func TestMemoryBudgetOptionThreadsToStats(t *testing.T) {
	dir := genRepo(t, 500)
	w, err := Open(dir, Options{Mode: Lazy, MemoryBudget: 123456})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Mem.Budget; got != 123456 {
		t.Fatalf("Stats().Mem.Budget = %d, want 123456", got)
	}
}

// TestEagerLoadLeavesRecyclerEmpty: the eager load is an extraction stream
// drained over every record, and a stream admits what it decodes to the
// recycler. No eager plan reads the recycler, so after an eager Open and an
// eager Refresh it holds nothing and charges nothing to the ledger.
func TestEagerLoadLeavesRecyclerEmpty(t *testing.T) {
	dir := genRepo(t, 500)
	for _, budget := range []int64{0, 8 << 20} {
		w, err := Open(dir, Options{Mode: Eager, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if n := w.Engine().Cache().Len(); n != 0 {
				t.Errorf("budget %d, %s: the recycler holds %d entries", budget, when, n)
			}
			if used := w.Stats().Mem.Used; used != 0 {
				t.Errorf("budget %d, %s: the ledger holds %d bytes", budget, when, used)
			}
		}
		check("after Open")
		if _, err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
		check("after Refresh")
	}
}

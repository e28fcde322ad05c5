package catalog

import (
	"math"
	"testing"
	"time"

	"repro/internal/column"
)

func TestCollectZone(t *testing.T) {
	z := CollectZone([]float64{3, -7, math.NaN(), 12, math.NaN()})
	if z.Min != -7 || z.Max != 12 {
		t.Errorf("min/max = %g/%g, want -7/12", z.Min, z.Max)
	}
	if z.Finite != 3 || z.NaNs != 2 || z.Samples != 5 {
		t.Errorf("counts = %+v", z)
	}

	// All-NaN record: min/max are the empty-range sentinels and Finite is 0,
	// so a pruner must not trust the bounds.
	z = CollectZone([]float64{math.NaN()})
	if z.Finite != 0 || !math.IsInf(z.Min, 1) || !math.IsInf(z.Max, -1) {
		t.Errorf("all-NaN zone = %+v", z)
	}

	if z = CollectZone(nil); z.Samples != 0 || z.Finite != 0 {
		t.Errorf("empty zone = %+v", z)
	}
}

func TestZoneMapsMtimeInvalidation(t *testing.T) {
	zm := NewZoneMaps()
	t1 := time.Unix(1000, 0)
	t2 := time.Unix(2000, 0)

	zm.PutRun("a", t1, 512, []int{1, 2}, []ZoneEntry{
		{Min: 1, Max: 2, Finite: 10, Samples: 10},
		{Min: 3, Max: 4, Finite: 10, Samples: 10},
	})
	if zm.Records() != 2 {
		t.Fatalf("records = %d, want 2", zm.Records())
	}
	if z, ok := zm.Get("a", t1, 512, 1); !ok || z.Min != 1 {
		t.Fatalf("Get(a, t1, 512, 1) = %+v, %v", z, ok)
	}

	// Same seqno at a different mtime: stale, must miss.
	if _, ok := zm.Get("a", t2, 512, 1); ok {
		t.Fatal("stale mtime must not serve zone entries")
	}
	// A PutRun at the new mtime drops every entry collected at the old one.
	zm.PutRun("a", t2, 512, []int{1}, []ZoneEntry{{Min: 9, Max: 9, Finite: 1, Samples: 1}})
	if zm.Records() != 1 {
		t.Fatalf("records after mtime change = %d, want 1", zm.Records())
	}
	if _, ok := zm.Get("a", t1, 512, 2); ok {
		t.Fatal("old-mtime entry survived a new-mtime PutRun")
	}

	zm.InvalidateFile("a")
	if zm.Records() != 0 {
		t.Fatalf("records after invalidate = %d, want 0", zm.Records())
	}
}

// TestZoneMapsSizeInvalidation: a file rewritten in place with its mtime
// kept (restored from a backup, copied with its timestamps) but a different
// size is a different file: its zones miss, and a PutRun at the new size
// drops the old ones.
func TestZoneMapsSizeInvalidation(t *testing.T) {
	zm := NewZoneMaps()
	mt := time.Unix(1000, 0)
	zm.PutRun("a", mt, 512, []int{1, 2}, []ZoneEntry{
		{Min: 1, Max: 2, Finite: 10, Samples: 10},
		{Min: 3, Max: 4, Finite: 10, Samples: 10},
	})
	if _, ok := zm.Get("a", mt, 1024, 1); ok {
		t.Fatal("an entry collected at size 512 served a file of size 1024")
	}
	zm.PutRun("a", mt, 1024, []int{1}, []ZoneEntry{{Min: 9, Max: 9, Finite: 1, Samples: 1}})
	if zm.Records() != 1 {
		t.Fatalf("records after size change = %d, want 1", zm.Records())
	}
	if _, ok := zm.Get("a", mt, 512, 2); ok {
		t.Fatal("old-size entry survived a new-size PutRun")
	}
	if z, ok := zm.Get("a", mt, 1024, 1); !ok || z.Min != 9 {
		t.Fatalf("Get(a, mt, 1024, 1) = %+v, %v", z, ok)
	}
}

// TestSnapshotSharesZones pins the persistence contract: zone maps live on
// the catalog store, outside its snapshots (statistics are monotone
// metadata, not query-visible data), so zones collected by a query running
// against an older snapshot survive every later publication.
func TestSnapshotSharesZones(t *testing.T) {
	s := NewStore(MSEED())
	zm := s.Zones()

	mt := time.Unix(42, 0)
	zm.PutRun("x", mt, 64, []int{7}, []ZoneEntry{{Min: -1, Max: 1, Finite: 2, Samples: 2}})
	if err := s.ReplaceAll(map[string]*column.Batch{TableData: column.MustNewBatch(
		column.New("file_id", column.Int64), column.New("seqno", column.Int64),
		column.New("sample_time", column.Timestamp), column.New("sample_value", column.Float64),
	)}); err != nil {
		t.Fatal(err)
	}
	if s.Zones() != zm {
		t.Fatal("a publication replaced the store's ZoneMaps instance")
	}
	if z, ok := s.Zones().Get("x", mt, 64, 7); !ok || z.Max != 1 {
		t.Fatalf("zone collected before a publication lost after it: %+v, %v", z, ok)
	}
}

// TestSnapshotSorted checks the stored-table side: installing a batch
// records which integer columns are null-free and non-decreasing, and each
// snapshot keeps the flags of the batch it holds.
func TestSnapshotSorted(t *testing.T) {
	s := NewStore(MSEED())
	n := 100
	ids := make([]int64, n)
	seqs := make([]int64, n)
	times := make([]int64, n)
	vals := make([]float64, n)
	for i := range vals {
		ids[i] = int64(i)
		seqs[i] = int64((i * 37) % n)
		times[i] = int64(i) * 1e9
		vals[i] = float64(i)
	}
	timeCol := column.NewTimestamps("sample_time", times) // sorted, but for a null
	nulls := make([]bool, n)
	nulls[n/2] = true
	timeCol.SetNulls(nulls)
	b, err := column.NewBatch(
		column.NewInt64s("file_id", ids),
		column.NewInt64s("seqno", seqs),
		timeCol,
		column.NewFloat64s("sample_value", vals),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceAll(map[string]*column.Batch{TableData: b}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for col, want := range map[string]bool{"file_id": true, "seqno": false, "sample_time": false, "sample_value": false} {
		if got := snap.Sorted(TableData, col); got != want {
			t.Errorf("Sorted(%s) = %v, want %v", col, got, want)
		}
	}
	if snap.Sorted(TableFiles, "file_id") {
		t.Error("a table no Replace installed reads as sorted")
	}

	// Replace publishes the next batch's flags with it; the earlier
	// snapshot keeps its own.
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	if err := s.Replace(TableData, b.Gather(rev)); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Sorted(TableData, "file_id") {
		t.Error("a table replaced with a reversed batch reads as sorted")
	}
	if !snap.Sorted(TableData, "file_id") {
		t.Error("a publication changed an earlier snapshot's sorted flags")
	}
}

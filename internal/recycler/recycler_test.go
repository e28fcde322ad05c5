package recycler

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mem"
)

func entryOf(n int, mtime time.Time) *Entry {
	return &Entry{Values: make([]float64, n), FileMtime: mtime}
}

// admit offers e under key as a run of one record.
func admit(c *Cache, key Key, e *Entry) {
	c.AdmitRun(key.URI, []int{key.SeqNo}, []Entry{*e})
}

// costOf is what an entry with its own values charges.
func costOf(e *Entry) int64 {
	cost, _ := e.charge()
	return cost
}

func TestLookupMissAndHit(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	key := Key{URI: "a.mseed", SeqNo: 1}
	if _, ok := c.Lookup(key, now, 0); ok {
		t.Fatal("hit on empty cache")
	}
	admit(c, key, entryOf(10, now))
	ent, ok := c.Lookup(key, now, 0)
	if !ok || len(ent.Values) != 10 {
		t.Fatalf("expected hit, got %v %v", ent, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStalenessInvalidation: an entry is stale once its file's mtime or
// size differs from the one it was extracted at — a newer mtime, an older
// one (a file rewritten with its old timestamp restored, or copied in with
// an earlier one) or the same mtime over a different size.
func TestStalenessInvalidation(t *testing.T) {
	c := New(1 << 20)
	admitted := time.Now()
	const size = 4096
	key := Key{URI: "a.mseed", SeqNo: 1}
	ent := entryOf(10, admitted)
	ent.FileSize = size
	admit(c, key, ent)

	// Same mtime and size: fresh.
	if _, ok := c.Lookup(key, admitted, size); !ok {
		t.Fatal("fresh entry missed")
	}
	for n, change := range []struct {
		name  string
		mtime time.Time
		size  int64
	}{
		{"newer mtime", admitted.Add(time.Second), size},
		{"older mtime", admitted.Add(-time.Hour), size},
		{"other size", admitted, size + 512},
	} {
		admit(c, key, ent)
		if _, ok := c.Lookup(key, change.mtime, change.size); ok {
			t.Fatalf("%s: stale entry served", change.name)
		}
		if st := c.Stats(); st.Invalidations != int64(n+1) {
			t.Errorf("%s: invalidations = %d, want %d", change.name, st.Invalidations, n+1)
		}
		// The entry is gone now, even for its own stamp.
		if _, ok := c.Lookup(key, admitted, size); ok || c.Len() != 0 {
			t.Fatalf("%s: invalidated entry still present (len %d)", change.name, c.Len())
		}
	}
}

// TestLRUEviction: once probation is empty, room comes from the protected
// segment's least recently used entry.
func TestLRUEviction(t *testing.T) {
	// Each 10-sample entry costs 10*8+64 = 144 bytes; the budget fits 4.
	c := New(600)
	now := time.Now()
	key := func(i int) Key { return Key{URI: "a", SeqNo: i} }
	for i := 1; i <= 4; i++ {
		admit(c, key(i), entryOf(10, now))
		if _, ok := c.Lookup(key(i), now, 0); !ok { // promote
			t.Fatalf("k%d missing", i)
		}
	}
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := c.Lookup(key(1), now, 0); !ok {
		t.Fatal("k1 missing")
	}
	admit(c, key(5), entryOf(10, now))
	if _, ok := c.Lookup(key(2), now, 0); ok {
		t.Error("k2 should have been evicted (LRU)")
	}
	for _, i := range []int{1, 3, 4, 5} {
		if _, ok := c.Lookup(key(i), now, 0); !ok {
			t.Errorf("k%d should be present", i)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestAdmitOversizedEntryDropped(t *testing.T) {
	c := New(100)
	admit(c, Key{URI: "big", SeqNo: 1}, entryOf(1000, time.Now()))
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("oversized entry admitted: len=%d used=%d", c.Len(), c.Used())
	}
}

func TestZeroBudgetDisablesCache(t *testing.T) {
	c := New(0)
	key := Key{URI: "a", SeqNo: 1}
	admit(c, key, entryOf(1, time.Now()))
	if _, ok := c.Lookup(key, time.Now(), 0); ok {
		t.Error("zero-budget cache served an entry")
	}
}

// TestAdmitReplacesExisting: admitting a resident key keeps the resident
// entry and counts a use, which promotes it past a scan of one-offs.
func TestAdmitReplacesExisting(t *testing.T) {
	c := New(1 << 16)
	now := time.Now()
	key := Key{URI: "a", SeqNo: 1}
	admit(c, key, entryOf(10, now))
	admit(c, key, entryOf(20, now))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	for i := 0; i < 1000; i++ { // 144 KB of one-offs through a 64 KiB cache
		admit(c, Key{URI: "scan", SeqNo: i}, entryOf(10, now))
	}
	ent, ok := c.Lookup(key, now, 0)
	if !ok || len(ent.Values) != 10 {
		t.Errorf("resident entry not kept through the scan: %v %v", ent, ok)
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	for i := 1; i <= 5; i++ {
		admit(c, Key{URI: "a", SeqNo: i}, entryOf(5, now))
		admit(c, Key{URI: "b", SeqNo: i}, entryOf(5, now))
	}
	if n := c.InvalidateFile("a"); n != 5 {
		t.Fatalf("invalidated %d, want 5", n)
	}
	if c.Len() != 5 {
		t.Errorf("len = %d, want 5", c.Len())
	}
	if _, ok := c.Lookup(Key{URI: "b", SeqNo: 3}, now, 0); !ok {
		t.Error("unrelated file entries lost")
	}
}

func TestClearAndContents(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	admit(c, Key{URI: "a", SeqNo: 1}, entryOf(3, now))
	admit(c, Key{URI: "a", SeqNo: 2}, entryOf(4, now))
	contents := c.Contents()
	if len(contents) != 2 {
		t.Fatalf("contents len = %d", len(contents))
	}
	// Newest first.
	if contents[0].Key.SeqNo != 2 || contents[0].Samples != 4 {
		t.Errorf("contents[0] = %+v", contents[0])
	}
	if contents[0].AdmittedAt.IsZero() {
		t.Error("AdmittedAt not stamped")
	}
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("Clear left entries")
	}
	// Stats survive Clear.
	if c.Stats().Misses != 0 {
		c.ResetStats()
	}
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("ResetStats left %+v", st)
	}
}

func TestBudgetNeverExceededQuick(t *testing.T) {
	// Property: after any sequence of admissions, Used() <= budget and the
	// entry count matches the listed contents.
	f := func(sizes []uint8) bool {
		c := New(2048)
		now := time.Now()
		for i, s := range sizes {
			admit(c, Key{URI: "f", SeqNo: i}, entryOf(int(s), now))
			if c.Used() > 2048 {
				return false
			}
		}
		return c.Len() == len(c.Contents())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	now := time.Now()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := Key{URI: fmt.Sprintf("f%d", g), SeqNo: i % 17}
				if i%3 == 0 {
					admit(c, key, entryOf(i%50, now))
				} else {
					c.Lookup(key, now, 0)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Used() > 1<<16 {
		t.Errorf("over budget after concurrent use: %d", c.Used())
	}
}

func TestAdmissionChecksLedger(t *testing.T) {
	c := New(1 << 20)
	l := mem.New(300)
	c.AttachLedger(l)

	big := &Entry{Values: make([]float64, 64)} // 64*8+64 = 576 bytes
	admit(c, Key{URI: "a", SeqNo: 1}, big)
	if c.Len() != 0 {
		t.Fatal("admission over the ledger budget must be declined")
	}
	st := c.Stats()
	if st.Declined != 1 || st.DeclinedBytes != costOf(big) {
		t.Fatalf("declined counters = %d/%d, want 1/%d", st.Declined, st.DeclinedBytes, costOf(big))
	}

	small := &Entry{Values: make([]float64, 8)} // 8*8+64 = 128 bytes
	admit(c, Key{URI: "a", SeqNo: 2}, small)
	if c.Len() != 1 {
		t.Fatal("admission within the ledger budget must succeed")
	}
	if got := l.Used(); got != costOf(small) {
		t.Fatalf("ledger used = %d, want %d", got, costOf(small))
	}

	// Eviction and invalidation must release the reservation.
	c.InvalidateFile("a")
	if got := l.Used(); got != 0 {
		t.Fatalf("ledger used after invalidation = %d, want 0", got)
	}

	// Clear releases whatever is held.
	admit(c, Key{URI: "b", SeqNo: 1}, &Entry{Values: make([]float64, 4)})
	if l.Used() == 0 {
		t.Fatal("setup: entry should hold a reservation")
	}
	c.Clear()
	if got := l.Used(); got != 0 {
		t.Fatalf("ledger used after Clear = %d, want 0", got)
	}
}

func TestLRUEvictionReleasesLedger(t *testing.T) {
	// Cache budget admits only one entry at a time; the ledger is roomy.
	c := New(200)
	l := mem.New(1 << 20)
	c.AttachLedger(l)
	e1 := &Entry{Values: make([]float64, 8)}
	e2 := &Entry{Values: make([]float64, 8)}
	admit(c, Key{URI: "a", SeqNo: 1}, e1)
	admit(c, Key{URI: "a", SeqNo: 2}, e2) // evicts e1 under the cache budget
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if got := l.Used(); got != costOf(e2) {
		t.Fatalf("ledger used = %d, want %d (evicted entry must be released)", got, costOf(e2))
	}
}

// TestRecyclerWarmSetSurvives: a working set of more records than a fixed
// 256-entry probation would hold, but under a quarter of the budget, is all
// hits on its second pass; and a record hit twice survives a scan of one-off
// runs larger than the whole budget, which an LRU would have flushed.
func TestRecyclerWarmSetSurvives(t *testing.T) {
	const records, per, runs = 10, 40, 40 // 400 records in 40 runs
	const runBytes = records*per*8 + records*entryOverhead
	const budget = 1 << 20
	if runs*runBytes >= budget/4 {
		t.Fatalf("setup: the working set (%d bytes) must fit a quarter of the budget", runs*runBytes)
	}
	c := New(budget)
	now := time.Now()
	pass := func(prefix string, n int) (hits int) {
		for r := 0; r < n; r++ {
			uri := fmt.Sprintf("%s%d", prefix, r)
			seqnos, ents := runOf(records, per, now)
			missed := false
			for _, s := range seqnos {
				if _, ok := c.Lookup(Key{URI: uri, SeqNo: s}, now, 0); ok {
					hits++
				} else {
					missed = true
				}
			}
			if missed {
				c.AdmitRun(uri, seqnos, ents)
			}
		}
		return hits
	}
	if hits := pass("warm", runs); hits != 0 {
		t.Fatalf("first pass hit %d records of an empty cache", hits)
	}
	if hits := pass("warm", runs); hits != runs*records {
		t.Fatalf("second pass over the warm set: %d of %d records hit", hits, runs*records)
	}
	hot := Key{URI: "warm0", SeqNo: 0}
	if _, ok := c.Lookup(hot, now, 0); !ok {
		t.Fatal("hot record missing before the scan")
	}
	scanRuns := 2 * budget / runBytes
	if hits := pass("scan", scanRuns); hits != 0 {
		t.Fatalf("a scan of one-off runs hit %d records", hits)
	}
	if _, ok := c.Lookup(hot, now, 0); !ok {
		t.Errorf("a record hit twice did not survive a scan of %d bytes through a %d-byte cache", scanRuns*runBytes, budget)
	}
	if c.Used() > budget || c.Stats().Evictions == 0 {
		t.Errorf("used %d of %d bytes, %d evictions: the scan put no pressure on the cache", c.Used(), budget, c.Stats().Evictions)
	}
}

// runOf builds the entries of one extraction run: records of per samples
// each, viewing consecutive stretches of one shared buffer.
func runOf(records, per int, mtime time.Time) (seqnos []int, ents []Entry) {
	buf := NewBuffer(records * per)
	for x := 0; x < records; x++ {
		off := x * per
		seqnos = append(seqnos, x)
		ents = append(ents, Entry{Values: buf.Values[off : off+per : off+per], Buf: buf, Off: off, FileMtime: mtime})
	}
	return seqnos, ents
}

// reachable sums the heap the cache keeps alive, by its own walk of the
// entries: bookkeeping and own values per entry, each distinct shared buffer
// whole and once.
func reachable(c *Cache) (bytes int64, buffers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*Buffer]bool)
	for _, e := range c.segs.All() {
		bytes += entryOverhead
		switch {
		case e.Buf == nil:
			bytes += int64(cap(e.Values)) * 8
		case !seen[e.Buf]:
			seen[e.Buf] = true
			bytes += int64(cap(e.Buf.Values)) * 8
		}
	}
	return bytes, len(seen)
}

// TestRecyclerChargesSharedBuffers pins what sharing costs: a buffer is
// charged whole, once, from the first of its entries admitted to the last
// removed, so Used, the ledger and the heap reachable from the cache agree —
// also under the adversarial pattern that keeps one record of every run hot
// and so every buffer alive: that pattern loses hits, never memory.
func TestRecyclerChargesSharedBuffers(t *testing.T) {
	const records, per = 10, 100
	const runBytes = records*per*8 + records*entryOverhead // 8,640
	const budget = 4*runBytes + runBytes/2                 // four runs and a half
	c := New(budget)
	l := mem.New(1 << 30)
	c.AttachLedger(l)
	now := time.Now()
	check := func(when string) {
		t.Helper()
		heap, _ := reachable(c)
		if used := c.Used(); used > budget || l.Used() != used || heap != used {
			t.Fatalf("%s: Used %d, ledger %d, reachable heap %d, budget %d", when, used, l.Used(), heap, budget)
		}
	}

	seqnos, ents := runOf(records, per, now)
	c.AdmitRun("run0", seqnos, ents)
	if got := c.Used(); got != runBytes {
		t.Fatalf("one run of %d records charges %d bytes, want %d: the buffer once, the bookkeeping per record", records, got, runBytes)
	}
	check("one run")

	// Twenty more runs through a cache that holds four, one record of each
	// kept hot by a lookup after every admission.
	for r := 1; r <= 20; r++ {
		seqnos, ents := runOf(records, per, now)
		c.AdmitRun(fmt.Sprintf("run%d", r), seqnos, ents)
		for h := 0; h <= r; h++ {
			c.Lookup(Key{URI: fmt.Sprintf("run%d", h), SeqNo: 0}, now, 0)
		}
		check(fmt.Sprintf("after run %d", r))
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("the budget was never under pressure; the test is vacuous")
	}
	heap, buffers := reachable(c)
	if buffers < 2 || heap > budget {
		t.Fatalf("cache views %d buffers holding %d bytes under a budget of %d", buffers, heap, budget)
	}

	// Removing a buffer's entries one by one releases the buffer exactly
	// once, with the last of them.
	c.Clear()
	if c.Used() != 0 || l.Used() != 0 {
		t.Fatalf("Clear left %d bytes charged, %d on the ledger", c.Used(), l.Used())
	}
	seqnos, ents = runOf(3, per, now)
	c.AdmitRun("last", seqnos, ents)
	full := c.Used()
	for x, want := range []int64{full - entryOverhead, full - 2*entryOverhead, 0} {
		// A lookup from after the file changed invalidates the one entry.
		c.Lookup(Key{URI: "last", SeqNo: x}, now.Add(time.Second), 0)
		if c.Used() != want || l.Used() != want {
			t.Fatalf("after removing %d of 3 entries: Used %d, ledger %d, want %d", x+1, c.Used(), l.Used(), want)
		}
	}

	// A run whose buffer alone exceeds the budget is not admitted at all:
	// no entry could be cached without keeping the whole buffer reachable.
	seqnos, ents = runOf(2, budget/8, now)
	c.AdmitRun("huge", seqnos, ents)
	if c.Len() != 0 || c.Used() != 0 || l.Used() != 0 {
		t.Fatalf("oversized run admitted: %d entries, %d bytes", c.Len(), c.Used())
	}
}

// Clear empties the cache (stats are preserved).
func (c *Cache) Clear() { c.mu.Lock(); defer c.mu.Unlock(); c.segs.Clear() }

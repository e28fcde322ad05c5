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

func TestLookupMissAndHit(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	key := Key{URI: "a.mseed", SeqNo: 1}
	if _, ok := c.Lookup(key, now); ok {
		t.Fatal("hit on empty cache")
	}
	c.Admit(key, entryOf(10, now))
	ent, ok := c.Lookup(key, now)
	if !ok || len(ent.Values) != 10 {
		t.Fatalf("expected hit, got %v %v", ent, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStalenessInvalidation(t *testing.T) {
	c := New(1 << 20)
	admitted := time.Now()
	key := Key{URI: "a.mseed", SeqNo: 1}
	c.Admit(key, entryOf(10, admitted))

	// Same mtime: fresh.
	if _, ok := c.Lookup(key, admitted); !ok {
		t.Fatal("fresh entry missed")
	}
	// Newer file mtime: stale, must invalidate.
	if _, ok := c.Lookup(key, admitted.Add(time.Second)); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// Entry is gone now, even for an old mtime.
	if _, ok := c.Lookup(key, admitted); ok {
		t.Fatal("invalidated entry still present")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after invalidation", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Each 10-sample entry costs 10*8+64 = 144 bytes; budget fits 2.
	c := New(300)
	now := time.Now()
	k1, k2, k3 := Key{URI: "a", SeqNo: 1}, Key{URI: "a", SeqNo: 2}, Key{URI: "a", SeqNo: 3}
	c.Admit(k1, entryOf(10, now))
	c.Admit(k2, entryOf(10, now))
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := c.Lookup(k1, now); !ok {
		t.Fatal("k1 missing")
	}
	c.Admit(k3, entryOf(10, now))
	if _, ok := c.Lookup(k2, now); ok {
		t.Error("k2 should have been evicted (LRU)")
	}
	if _, ok := c.Lookup(k1, now); !ok {
		t.Error("k1 should have survived")
	}
	if _, ok := c.Lookup(k3, now); !ok {
		t.Error("k3 should be present")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestAdmitOversizedEntryDropped(t *testing.T) {
	c := New(100)
	c.Admit(Key{URI: "big", SeqNo: 1}, entryOf(1000, time.Now()))
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("oversized entry admitted: len=%d used=%d", c.Len(), c.Used())
	}
}

func TestZeroBudgetDisablesCache(t *testing.T) {
	c := New(0)
	key := Key{URI: "a", SeqNo: 1}
	c.Admit(key, entryOf(1, time.Now()))
	if _, ok := c.Lookup(key, time.Now()); ok {
		t.Error("zero-budget cache served an entry")
	}
}

func TestAdmitReplacesExisting(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	key := Key{URI: "a", SeqNo: 1}
	c.Admit(key, entryOf(10, now))
	c.Admit(key, entryOf(20, now))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	ent, ok := c.Lookup(key, now)
	if !ok || len(ent.Values) != 20 {
		t.Errorf("replacement not visible: %v %v", ent, ok)
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	for i := 1; i <= 5; i++ {
		c.Admit(Key{URI: "a", SeqNo: i}, entryOf(5, now))
		c.Admit(Key{URI: "b", SeqNo: i}, entryOf(5, now))
	}
	if n := c.InvalidateFile("a"); n != 5 {
		t.Fatalf("invalidated %d, want 5", n)
	}
	if c.Len() != 5 {
		t.Errorf("len = %d, want 5", c.Len())
	}
	if _, ok := c.Lookup(Key{URI: "b", SeqNo: 3}, now); !ok {
		t.Error("unrelated file entries lost")
	}
}

func TestClearAndContents(t *testing.T) {
	c := New(1 << 20)
	now := time.Now()
	c.Admit(Key{URI: "a", SeqNo: 1}, entryOf(3, now))
	c.Admit(Key{URI: "a", SeqNo: 2}, entryOf(4, now))
	contents := c.Contents()
	if len(contents) != 2 {
		t.Fatalf("contents len = %d", len(contents))
	}
	// Most recently used first.
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
	// entry count matches the internal list.
	f := func(sizes []uint8) bool {
		c := New(2048)
		now := time.Now()
		for i, s := range sizes {
			c.Admit(Key{URI: "f", SeqNo: i}, entryOf(int(s), now))
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
					c.Admit(key, entryOf(i%50, now))
				} else {
					c.Lookup(key, now)
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
	c.Admit(Key{URI: "a", SeqNo: 1}, big)
	if c.Len() != 0 {
		t.Fatal("admission over the ledger budget must be declined")
	}
	st := c.Stats()
	if st.Declined != 1 || st.DeclinedBytes != big.bytes() {
		t.Fatalf("declined counters = %d/%d, want 1/%d", st.Declined, st.DeclinedBytes, big.bytes())
	}

	small := &Entry{Values: make([]float64, 8)} // 8*8+64 = 128 bytes
	c.Admit(Key{URI: "a", SeqNo: 2}, small)
	if c.Len() != 1 {
		t.Fatal("admission within the ledger budget must succeed")
	}
	if got := l.Used(); got != small.bytes() {
		t.Fatalf("ledger used = %d, want %d", got, small.bytes())
	}

	// Eviction and invalidation must release the reservation.
	c.InvalidateFile("a")
	if got := l.Used(); got != 0 {
		t.Fatalf("ledger used after invalidation = %d, want 0", got)
	}

	// Clear releases whatever is held.
	c.Admit(Key{URI: "b", SeqNo: 1}, &Entry{Values: make([]float64, 4)})
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
	c.Admit(Key{URI: "a", SeqNo: 1}, e1)
	c.Admit(Key{URI: "a", SeqNo: 2}, e2) // evicts e1 under the cache budget
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if got := l.Used(); got != e2.bytes() {
		t.Fatalf("ledger used = %d, want %d (evicted entry must be released)", got, e2.bytes())
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
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*node).entry
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
			c.Lookup(Key{URI: fmt.Sprintf("run%d", h), SeqNo: 0}, now)
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
		c.Lookup(Key{URI: "last", SeqNo: x}, now.Add(time.Second))
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

// Package recycler implements the intermediate-result cache that realizes
// lazy loading (§3.3 of the paper), as MonetDB's recycler does [Ivanova et
// al., SIGMOD 2009]: extracted, transformed records are admitted here,
// keyed by (file URI, record sequence number), instead of materialized. The
// byte budget is kept by the 2Q cache the query cache runs on (package
// cache), so a scan of one-off records waits in probation, a quarter of the
// budget, and cannot push out the records a second hit has protected; every
// admission reserves from the one memory ledger. An entry remembers its
// file's modification time and size at extraction, and a lookup that finds
// either changed, in either direction, invalidates it: updates propagate
// lazily. An entry holds calibrated values only, 8 bytes a sample, plus the
// Start and Rate its sample times derive from. A run's entries view one
// Buffer, which the cache charges whole and once, from the first of them
// admitted to the last removed, so Used is the memory it keeps reachable.
package recycler

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Key identifies a cached extraction result.
type Key struct {
	URI   string
	SeqNo int // record sequence number; -1 for whole-file entries
}

// Buffer holds the calibrated values of one extraction run, which its
// records' entries view; it is read-only once any of them is published.
type Buffer struct {
	Values []float64
	share  cache.Share // the whole buffer, charged while an entry views it
}

// NewBuffer allocates a buffer of n samples.
func NewBuffer(n int) *Buffer {
	return &Buffer{Values: make([]float64, n), share: cache.Share{Cost: int64(n) * 8}}
}

// Entry is one cached, transformed record: its calibrated values (read-only
// once published), and the start (ns since epoch) and rate (Hz) its sample
// times derive from.
type Entry struct {
	Values []float64
	Start  int64
	Rate   float64
	// Buf, when non-nil, is the buffer Values views, capacity-limited, at
	// Off; nil means Values is the entry's own allocation.
	Buf *Buffer
	Off int
	// FileMtime and FileSize are the source file's when it was extracted.
	FileMtime  time.Time
	FileSize   int64
	AdmittedAt time.Time
}

// entryOverhead approximates an entry's bookkeeping: struct, node, map slot.
const entryOverhead = 64

// charge is what admitting e costs: its bookkeeping and the values it alone
// keeps reachable, and the shared buffer it views, charged apart and once.
func (e *Entry) charge() (int64, *cache.Share) {
	if e.Buf != nil {
		return entryOverhead, &e.Buf.share
	}
	return int64(len(e.Values))*8 + entryOverhead, nil
}

// Stats counts activity since creation or ResetStats. Evictions are entries
// dropped for room, protected or unhit on probation; Invalidations, stale
// ones; Declined, admissions the ledger refused, costing DeclinedBytes.
type Stats struct {
	Hits, Misses, Evictions, Invalidations, Declined, DeclinedBytes int64
}

// Cache is a byte-budgeted cache of extraction results, safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	segs   *cache.Cache[Key, *Entry]
	stats  Stats // hits, misses and invalidations; segs counts the rest
}

// New creates a cache with the given byte budget; a budget <= 0 caches
// nothing, the experimental baseline.
func New(budget int64) *Cache {
	return &Cache{budget: budget, segs: cache.New[Key, *Entry](budget, nil)}
}

// AttachLedger charges admissions to the memory governor's ledger, which may
// decline them. Attach before the cache holds entries.
func (c *Cache) AttachLedger(l *mem.Ledger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.segs = cache.New[Key, *Entry](c.budget, l)
}

// Lookup returns key's entry if it is fresh: extracted when the file's
// mtime and size were those given. A stale entry is removed and counted as
// an invalidation; the caller re-extracts and re-admits it (§3.3).
func (c *Cache) Lookup(key Key, mtime time.Time, size int64) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.segs.Get(key, false)
	switch {
	case !ok:
	case !mtime.Equal(e.FileMtime) || size != e.FileSize:
		c.segs.Remove(key)
		c.stats.Invalidations++
	default:
		c.segs.Get(key, true)
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	return nil, false
}

// AdmitRun admits the records of one extraction run — &ents[x] under
// (uri, seqnos[x]) — in order, under one lock. An entry that cannot fit the
// whole budget, with its buffer when it would be the first to view it, is
// not admitted; a resident key keeps its entry and counts a use.
func (c *Cache) AdmitRun(uri string, seqnos []int, ents []Entry) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for x := range ents {
		ents[x].AdmittedAt = now
		cost, share := ents[x].charge()
		c.segs.Add(Key{URI: uri, SeqNo: seqnos[x]}, &ents[x], cost, share)
	}
}

// InvalidateFile drops every entry of a file that left the repository and
// returns how many it dropped.
func (c *Cache) InvalidateFile(uri string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.segs.All() {
		if k.URI == uri && c.segs.Remove(k) {
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Used returns the bytes the cache charges against its budget and ledger,
// each shared buffer with an entry in the cache whole and once.
func (c *Cache) Used() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.segs.Cost() }

// Len returns the number of cached entries.
func (c *Cache) Len() int { c.mu.Lock(); defer c.mu.Unlock(); return c.segs.Len() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Evictions, st.Declined, st.DeclinedBytes = c.segs.Evictions+c.segs.Unreused, c.segs.Declined, c.segs.DeclinedCost
	return st
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	c.segs.Evictions, c.segs.Unreused, c.segs.Declined, c.segs.DeclinedCost = 0, 0, 0, 0
}

// ContentsEntry describes one cached entry for inspection (demo point 7).
// Bytes is what it views plus its bookkeeping, not its share of Used.
type ContentsEntry struct {
	Key                   Key
	Samples               int
	Bytes, FileSize       int64
	AdmittedAt, FileMtime time.Time
}

// Contents lists the protected entries from the most recently used, then
// those on probation from the newest.
func (c *Cache) Contents() []ContentsEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ContentsEntry
	for k, e := range c.segs.All() {
		out = append(out, ContentsEntry{k, len(e.Values), int64(len(e.Values))*8 + entryOverhead, e.FileSize, e.AdmittedAt, e.FileMtime})
	}
	return out
}

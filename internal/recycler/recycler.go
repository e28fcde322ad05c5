// Package recycler implements the intermediate-result cache that realizes
// lazy loading (§3.3 of the paper). Materializing extracted-and-transformed
// data into the warehouse is replaced by admitting it to this cache, which
// mirrors MonetDB's recycler [Ivanova et al., SIGMOD 2009]:
//
//   - entries are keyed by the (file URI, record sequence number) they were
//     extracted from (file-level granularity uses sequence number -1);
//   - a byte budget bounds the cache, maintained with an LRU policy;
//   - each entry remembers the source file's modification time at admission;
//     a lookup whose current file mtime is newer is treated as stale and
//     invalidated, which is how repository updates propagate lazily.
package recycler

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/mem"
)

// Key identifies a cached extraction result.
type Key struct {
	URI   string
	SeqNo int // record sequence number; -1 for whole-file entries
}

// Entry is one cached, transformed record: parallel vectors of sample
// timestamps (ns since epoch) and calibrated values.
type Entry struct {
	Times  []int64
	Values []float64
	// FileMtime is the source file's modification time when the entry was
	// admitted.
	FileMtime time.Time
	// AdmittedAt is when the entry entered the cache.
	AdmittedAt time.Time
}

// bytes is the approximate footprint of the entry.
func (e *Entry) bytes() int64 {
	return int64(len(e.Times))*8 + int64(len(e.Values))*8 + 64
}

// Stats counts cache activity since creation (or the last Reset).
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64 // stale entries dropped due to file updates
	// Declined counts admissions refused because the attached memory
	// ledger denied the reservation, and DeclinedBytes the bytes those
	// entries would have occupied — the cache yielding under global
	// memory pressure rather than admitting unconditionally.
	Declined      int64
	DeclinedBytes int64
}

// Cache is a byte-budgeted LRU cache of extraction results. It is safe for
// concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recently used; values are *node
	items  map[Key]*list.Element
	ledger *mem.Ledger // nil until AttachLedger; admissions reserve from it
	stats  Stats
}

type node struct {
	key   Key
	entry *Entry
}

// New creates a cache with the given byte budget. A budget <= 0 disables
// caching entirely (every lookup misses, admissions are dropped), which is
// useful as an experimental baseline.
func New(budget int64) *Cache {
	return &Cache{
		budget: budget,
		lru:    list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// AttachLedger ties admissions to the memory governor: every admitted
// entry reserves its bytes from the ledger and releases them when it is
// evicted, invalidated or cleared; an admission the ledger denies (after
// LRU eviction has already made room under the cache's own budget) is
// declined and counted in Stats.Declined/DeclinedBytes. Attach before the
// cache holds entries; a nil ledger detaches nothing and changes nothing.
func (c *Cache) AttachLedger(l *mem.Ledger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledger = l
}

// Lookup returns the cached entry for key if present and fresh.
// currentMtime is the source file's modification time now; an entry
// admitted before a newer mtime is stale, counts as an invalidation, and is
// removed (the caller will re-extract and re-admit — the lazy refreshment
// of §3.3).
func (c *Cache) Lookup(key Key, currentMtime time.Time) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	nd := el.Value.(*node)
	if currentMtime.After(nd.entry.FileMtime) {
		c.removeLocked(el)
		c.stats.Invalidations++
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return nd.entry, true
}

// Admit inserts (or replaces) the entry for key, evicting least recently
// used entries as needed to fit the budget. Entries larger than the whole
// budget are not admitted.
func (c *Cache) Admit(key Key, e *Entry) {
	if e.AdmittedAt.IsZero() {
		e.AdmittedAt = time.Now()
	}
	sz := e.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	for c.used+sz > c.budget && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.stats.Evictions++
	}
	// The cache's own budget is satisfied; the global memory ledger has
	// the final say. Caching is an optimization, so under pressure the
	// entry is simply not admitted (the source files still hold the data).
	if !c.ledger.TryReserve(sz) {
		c.stats.Declined++
		c.stats.DeclinedBytes += sz
		return
	}
	el := c.lru.PushFront(&node{key: key, entry: e})
	c.items[key] = el
	c.used += sz
}

// removeLocked unlinks an element; the caller holds the mutex.
func (c *Cache) removeLocked(el *list.Element) {
	nd := el.Value.(*node)
	c.lru.Remove(el)
	delete(c.items, nd.key)
	sz := nd.entry.bytes()
	c.used -= sz
	c.ledger.Release(sz)
}

// InvalidateFile drops every entry belonging to the given file URI,
// returning how many were removed. Used when a file disappears from the
// repository.
func (c *Cache) InvalidateFile(uri string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*list.Element
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*node).key.URI == uri {
			victims = append(victims, el)
		}
	}
	for _, el := range victims {
		c.removeLocked(el)
		c.stats.Invalidations++
	}
	return len(victims)
}

// Clear empties the cache (stats are preserved).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.items = make(map[Key]*list.Element)
	c.ledger.Release(c.used)
	c.used = 0
}

// Used returns the current byte footprint.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// ContentsEntry describes one cached entry for inspection (demo point 7).
type ContentsEntry struct {
	Key        Key
	Samples    int
	Bytes      int64
	AdmittedAt time.Time
	FileMtime  time.Time
}

// Contents lists the cache entries from most to least recently used.
func (c *Cache) Contents() []ContentsEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ContentsEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		nd := el.Value.(*node)
		out = append(out, ContentsEntry{
			Key:        nd.key,
			Samples:    len(nd.entry.Times),
			Bytes:      nd.entry.bytes(),
			AdmittedAt: nd.entry.AdmittedAt,
			FileMtime:  nd.entry.FileMtime,
		})
	}
	return out
}

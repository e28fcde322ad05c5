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
//
// An entry holds a record's calibrated values only — 8 bytes a sample. The
// sample times are a pure function of the record's start, its rate and the
// sample index, so the entry carries Start and Rate and whoever lists
// D.sample_time generates them. Extraction decodes a whole run into one
// Buffer and admits the run's records as entries that view consecutive
// stretches of it, which is what lets a morsel view the same memory instead
// of copying it. Sharing changes what an eviction frees: a buffer stays
// reachable, whole, until the last entry viewing it leaves. The cache
// therefore charges a buffer once — against its budget and the ledger —
// from the first of its entries admitted to the last one removed, so Used
// is the memory the cache keeps reachable, not the sum of what its entries
// view. Evicting one record of a hot run frees only its bookkeeping; an
// access pattern that keeps one record per run hot costs hit ratio, never
// memory.
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

// Buffer is one allocation of calibrated sample values that the entries of
// one extraction run view. Values is written only while the run decodes,
// before any of its entries is published; after that it is read-only.
type Buffer struct {
	Values []float64
	// live counts the cache entries viewing the buffer; guarded by the
	// mutex of the cache that holds them.
	live int
}

// NewBuffer allocates a buffer of n samples.
func NewBuffer(n int) *Buffer { return &Buffer{Values: make([]float64, n)} }

// bytes is the footprint the cache charges while any entry views b.
func (b *Buffer) bytes() int64 { return int64(len(b.Values)) * 8 }

// Entry is one cached, transformed record: its calibrated values, and the
// start time (ns since epoch) and sample rate (Hz) its sample times derive
// from. Values is read-only once the entry is published.
type Entry struct {
	Values []float64
	Start  int64
	Rate   float64
	// Buf, when non-nil, is the shared buffer Values views:
	// Buf.Values[Off : Off+len(Values)], capacity-limited. Entries whose
	// views are adjacent in one buffer can be handed on as one slice of it.
	// nil means Values is the entry's own allocation.
	Buf *Buffer
	Off int
	// FileMtime is the source file's modification time when the entry was
	// admitted.
	FileMtime time.Time
	// AdmittedAt is when the entry entered the cache.
	AdmittedAt time.Time
}

// entryOverhead approximates an entry's bookkeeping: the struct, its list
// node and its map slot.
const entryOverhead = 64

// bytes is the entry's own footprint: its bookkeeping plus the values it
// alone keeps reachable (a shared buffer is charged apart, once).
func (e *Entry) bytes() int64 {
	if e.Buf != nil {
		return entryOverhead
	}
	return int64(len(e.Values))*8 + entryOverhead
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
// used entries as needed to fit the budget. An entry that cannot fit the
// whole budget — with its buffer, when it would be the first to view it —
// is not admitted.
func (c *Cache) Admit(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admitLocked(key, e, time.Now())
}

// AdmitRun admits the records of one extraction run — &ents[x] under
// (uri, seqnos[x]) — in order, under one lock. Each entry is admitted as by
// Admit.
func (c *Cache) AdmitRun(uri string, seqnos []int, ents []Entry) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for x := range ents {
		c.admitLocked(Key{URI: uri, SeqNo: seqnos[x]}, &ents[x], now)
	}
}

func (c *Cache) admitLocked(key Key, e *Entry, now time.Time) {
	if e.AdmittedAt.IsZero() {
		e.AdmittedAt = now
	}
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	// The first entry to view a buffer brings the whole buffer with it;
	// recomputed each round, because making room can evict the buffer's last
	// other viewer.
	var sz int64
	for {
		sz = e.bytes()
		if e.Buf != nil && e.Buf.live == 0 {
			sz += e.Buf.bytes()
		}
		if sz > c.budget {
			return
		}
		if c.used+sz <= c.budget || c.lru.Len() == 0 {
			break
		}
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
	if e.Buf != nil {
		e.Buf.live++
	}
}

// removeLocked unlinks an element, and with the last entry viewing a shared
// buffer, the buffer's charge; the caller holds the mutex.
func (c *Cache) removeLocked(el *list.Element) {
	nd := el.Value.(*node)
	c.lru.Remove(el)
	delete(c.items, nd.key)
	sz := nd.entry.bytes()
	if b := nd.entry.Buf; b != nil {
		if b.live--; b.live == 0 {
			sz += b.bytes()
		}
	}
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
	for c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
	}
}

// Used returns the bytes the cache keeps reachable and charges against its
// budget and ledger: every entry's bookkeeping and own values, and every
// shared buffer with at least one entry in the cache, whole and once.
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
	Key     Key
	Samples int
	// Bytes is what the entry views plus its bookkeeping; entries of one
	// run view one buffer, which Used counts once and whole.
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
			Samples:    len(nd.entry.Values),
			Bytes:      int64(len(nd.entry.Values))*8 + entryOverhead,
			AdmittedAt: nd.entry.AdmittedAt,
			FileMtime:  nd.entry.FileMtime,
		})
	}
	return out
}

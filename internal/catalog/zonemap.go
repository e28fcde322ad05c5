package catalog

import (
	"math"
	"sync"
	"time"
)

// ZoneEntry is the zone-map statistic for one extracted record: min/max over
// the record's finite sample values plus NaN/null tallies. Collected lazily —
// the first extraction of a record has the decoded samples in hand anyway —
// and consulted before later extractions to prove a record cannot satisfy a
// pushed-down predicate, so its run is never read nor Steim-decoded again —
// or that every sample does, so an aggregate can take the record from here.
type ZoneEntry struct {
	Min, Max float64 // over non-NaN values; meaningless when Finite == 0
	Finite   int64   // samples that are neither NaN nor null
	NaNs     int64
	Nulls    int64
	Samples  int64
	Sum      int64   // exact sum of the raw samples under a gain-only transform, else 0
	Start    int64   // the decoded header's first-sample time (ns)
	Rate     float64 // and sample rate (Hz), which generate the sample times
}

// CollectZone computes the zone statistic of one record's (transformed)
// sample values. Shared by the extraction engine and cmd/mseedinfo.
func CollectZone(values []float64) ZoneEntry {
	z := ZoneEntry{Min: math.Inf(1), Max: math.Inf(-1), Samples: int64(len(values))}
	for _, v := range values {
		if math.IsNaN(v) {
			z.NaNs++
			continue
		}
		z.Finite++
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	return z
}

// fileZones holds one file's per-record zone entries, valid for exactly one
// observed (mtime, size) — the same staleness token the recycler cache uses.
type fileZones struct {
	mtime time.Time
	size  int64
	recs  map[int]ZoneEntry // keyed by record sequence number
}

// stale reports whether fz is missing or was collected at another
// (mtime, size).
func (fz *fileZones) stale(mtime time.Time, size int64) bool {
	return fz == nil || !fz.mtime.Equal(mtime) || fz.size != size
}

// ZoneMaps is the catalog-resident collection of record zone maps, keyed by
// file URI and record sequence number. Entries are valid only for the file
// (mtime, size) they were collected at: a PutRun with a different pair
// discards the file's stale entries and a Get with one finds none, mirroring
// the recycler's invalidation rule, so a rewritten file is re-extracted (and
// its zones re-collected) rather than wrongly skipped, even when the rewrite
// kept the mtime. Safe for concurrent use; shared across store snapshots
// (statistics are monotone metadata, not query-visible data).
type ZoneMaps struct {
	mu    sync.RWMutex
	files map[string]*fileZones
}

// NewZoneMaps returns an empty zone-map collection.
func NewZoneMaps() *ZoneMaps {
	return &ZoneMaps{files: make(map[string]*fileZones)}
}

// PutRun records the zone entries of one extraction run — zones[x] for
// (uri, seqnos[x]), all observed at (mtime, size) — under one lock. Entries
// collected at a different (mtime, size) are dropped first.
func (zm *ZoneMaps) PutRun(uri string, mtime time.Time, size int64, seqnos []int, zones []ZoneEntry) {
	zm.mu.Lock()
	defer zm.mu.Unlock()
	fz := zm.files[uri]
	if fz.stale(mtime, size) {
		fz = &fileZones{mtime: mtime, size: size, recs: make(map[int]ZoneEntry, len(seqnos))}
		zm.files[uri] = fz
	}
	for x, seqno := range seqnos {
		fz.recs[seqno] = zones[x]
	}
}

// Get returns the zone entry for (uri, seqno) if one was collected at exactly
// the given (mtime, size). A stale or missing entry reports ok == false — the
// caller must extract (and thereby re-collect).
func (zm *ZoneMaps) Get(uri string, mtime time.Time, size int64, seqno int) (ZoneEntry, bool) {
	zm.mu.RLock()
	defer zm.mu.RUnlock()
	fz := zm.files[uri]
	if fz.stale(mtime, size) {
		return ZoneEntry{}, false
	}
	z, ok := fz.recs[seqno]
	return z, ok
}

// InvalidateFile drops every zone entry of one file; a load calls it for
// each file that left the repository.
func (zm *ZoneMaps) InvalidateFile(uri string) {
	zm.mu.Lock()
	defer zm.mu.Unlock()
	delete(zm.files, uri)
}

// Records returns the total number of record zone entries held.
func (zm *ZoneMaps) Records() int {
	zm.mu.RLock()
	defer zm.mu.RUnlock()
	n := 0
	for _, fz := range zm.files {
		n += len(fz.recs)
	}
	return n
}

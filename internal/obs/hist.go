package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histogram: log-bucketed at powers of two from 1µs. Bucket i
// holds observations <= 1µs<<i, so the 28 buckets cover 1µs .. ~67s with
// the last bucket catching everything beyond (+Inf in the Prometheus
// rendering). Observe is a few atomic adds — safe and cheap from any
// number of goroutines.
const (
	// histMinNanos is bucket 0's inclusive upper bound (1µs).
	histMinNanos = 1000
	// NumHistBuckets is the bucket count including the overflow bucket.
	NumHistBuckets = 28
)

// Histogram is an atomic log-bucketed latency histogram.
type Histogram struct {
	counts [NumHistBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketOf returns the index of the smallest bucket whose upper bound
// admits nanos.
func bucketOf(nanos int64) int {
	if nanos <= histMinNanos {
		return 0
	}
	// Smallest i with ceil(nanos/1µs) <= 1<<i.
	q := (uint64(nanos) + histMinNanos - 1) / histMinNanos
	b := bits.Len64(q - 1)
	if b >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return b
}

// BucketBound returns bucket i's inclusive upper bound in nanoseconds;
// -1 means unbounded (the overflow bucket).
func BucketBound(i int) int64 {
	if i >= NumHistBuckets-1 {
		return -1
	}
	return histMinNanos << i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.counts[bucketOf(n)].Add(1)
	h.sum.Add(n)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Counts [NumHistBuckets]int64
	Count  int64 // sum of Counts
	Sum    int64 // total nanoseconds observed
}

// Snapshot copies the histogram. Counts and Sum are each atomically
// read; a concurrent Observe may land between them, so derived figures
// are consistent to within the in-flight observations.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range s.Counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

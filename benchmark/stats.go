package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// tailPercentiles are the candidates of the tail rule, ascending.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile that still has at least ten
// of the n samples beyond it; 50 when even p75 does not.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-9 { // n*(1-p/100) >= 10, without the rounding
			best = p
		}
	}
	return best
}

// sample is one measured operation of a workload.
type sample struct {
	class  class
	traced bool          // the request asked for its span tree
	ok     bool          // answered 200 (HTTP) / nil error (in-process)
	done   time.Duration // completion time, as an offset into the measured window
	lat    time.Duration // client-observed latency; from the due time in an open loop
	svc    time.Duration // send to answer received (== lat in a closed loop)
	late   time.Duration // open loop: send time minus due time
	waited bool          // open loop: the generator was idle before the due time
	resp   []byte        // raw response body, parsed after the window closes
	ans    *answer       // the parsed answer (in-process workloads fill it directly)
	q      *query
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// figures are the latency and throughput figures of a measured window.
type figures struct {
	n, parts       int // verified queries completed inside the window; sub-windows it was cut into
	qps, p50, tail float64
}

// windowFigures cuts [0, window) into subWindows equal sub-windows by
// completion time, computes each figure inside every sub-window and reports
// the median of the sub-window values: a burst of interference from the
// sandbox's other tenants lasts seconds and lands in one or two sub-windows,
// a change to the code moves all of them, and no sample is discarded by its
// own value. The window is not cut when a sub-window would hold fewer than
// the ten samples beyond tailP that the tail rule asks for.
func windowFigures(samples []sample, window time.Duration, tailP float64) figures {
	var all []float64
	var done []time.Duration
	for i := range samples {
		if s := &samples[i]; s.ok && s.done >= 0 && s.done < window {
			all = append(all, ms(s.lat))
			done = append(done, s.done)
		}
	}
	parts := subWindows
	if float64(len(all))/subWindows*(100-tailP) < 1000 {
		parts = 1
	}
	sub := window / time.Duration(parts)
	type bucket struct {
		lat         []float64
		first, last time.Duration // earliest and latest completion
	}
	buckets := make([]bucket, parts)
	for i, l := range all {
		b := &buckets[min(int(done[i]/sub), parts-1)]
		if len(b.lat) == 0 || done[i] < b.first {
			b.first = done[i]
		}
		b.last = max(b.last, done[i])
		b.lat = append(b.lat, l)
	}
	var qps, p50, tail []float64
	for _, b := range buckets {
		sort.Float64s(b.lat)
		// The completion rate between the sub-window's first and last
		// completion: unlike count / width it does not jump by a whole query
		// when a completion falls just either side of an edge.
		if b.last > b.first {
			qps = append(qps, float64(len(b.lat)-1)/(b.last-b.first).Seconds())
		} else {
			qps = append(qps, float64(len(b.lat))/sub.Seconds())
		}
		p50 = append(p50, percentile(b.lat, 50))
		tail = append(tail, percentile(b.lat, tailP))
	}
	return figures{len(all), parts, median(qps), median(p50), median(tail)}
}

// latencies returns the latencies (ms) of the ok samples matching keep.
func latencies(samples []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.ok && (keep == nil || keep(s)) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

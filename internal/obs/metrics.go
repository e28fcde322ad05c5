package obs

import (
	"sync/atomic"
	"time"
)

// QueryClass buckets served queries for the latency histograms: a
// result-cache hit, a prepared-statement execution, a cold (full
// parse/plan/execute) ad-hoc query, or a warehouse refresh.
type QueryClass int

// Query classes.
const (
	ClassCold QueryClass = iota
	ClassCached
	ClassPrepared
	ClassRefresh
	NumClasses
)

// String returns the class's metric label value.
func (c QueryClass) String() string {
	switch c {
	case ClassCold:
		return "cold"
	case ClassCached:
		return "cached"
	case ClassPrepared:
		return "prepared"
	case ClassRefresh:
		return "refresh"
	default:
		return "unknown"
	}
}

// classLabels are the precomputed Prometheus label pairs, so the scrape
// path never concatenates strings.
var classLabels = [NumClasses]string{
	ClassCold:     `class="cold"`,
	ClassCached:   `class="cached"`,
	ClassPrepared: `class="prepared"`,
	ClassRefresh:  `class="refresh"`,
}

// Label returns the class's Prometheus label pair (`class="cold"`).
func (c QueryClass) Label() string {
	if c < 0 || c >= NumClasses {
		return `class="unknown"`
	}
	return classLabels[c]
}

// Metrics is the warehouse's always-on observability state: per-class
// latency histograms, the admission-wait histogram, and error and
// slow-query counters. Unlike trace spans (off under the NoTrace oracle),
// these stay on — the cost is two histogram Observes per served query.
type Metrics struct {
	Query [NumClasses]Histogram
	// Admit is the time a query waited to be admitted: for an admission
	// slot, then for the snapshot lock a Refresh holds while it drains.
	Admit  Histogram
	Errors atomic.Int64 // queries that returned an error
	Slow   atomic.Int64 // queries at or over the slow-query threshold
	// Of the Errors: queries their context cancelled, queries past their
	// context's deadline, and queries failed by a panic the engine
	// recovered.
	Cancelled        atomic.Int64
	DeadlineExceeded atomic.Int64
	Panics           atomic.Int64
}

// ObserveQuery records one successfully served query (or refresh).
func (m *Metrics) ObserveQuery(c QueryClass, d time.Duration) {
	if m == nil || c < 0 || c >= NumClasses {
		return
	}
	m.Query[c].Observe(d)
}

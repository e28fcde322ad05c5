package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/seisgen"
)

// query is one request of a workload together with the parameters the
// oracle needs to compute its answer from the decoded fixture.
type query struct {
	class  class
	sql    string // POST /query text; empty for a prepared execution
	params []any  // POST /execute parameters of the point statement

	station, channel string
	t0, t1           int64   // sample_time window [t0, t1), ns
	thr              float64 // hunt threshold
	seqno            int     // point lookup
	idx              int     // cached statement index
	fresh            string  // refresh_mix: uri of the pool file-day this query must see
}

// approx marks an expected cell compared within 1e-9 relative (AVG); every
// other cell is compared exactly.
type approx float64

const tsLayout = "2006-01-02T15:04:05.000"

func tsLit(ns int64) string { return time.Unix(0, ns).UTC().Format(tsLayout) }

// pointSQL is warm_serve's prepared statement.
const pointSQL = "SELECT F.uri, R.seqno, R.start_time, R.num_samples " +
	"FROM mseed.files F JOIN mseed.records R ON F.file_id = R.file_id " +
	"WHERE F.station = ? AND F.channel = ? AND R.seqno = ?"

// q2SQL is Figure 1's Q2, verbatim (lazyetl.Figure1Q2 on one line).
const q2SQL = "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) " +
	"FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ' GROUP BY F.station"

const aggSelect = "SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview"

// randomWindow draws a ms-granular window of the given width inside one
// random file-day of the fixture's original days, so literals never repeat
// (no result-cache hit) and every query covers the same number of samples.
func (fx *fixture) randomWindow(rng *rand.Rand, width time.Duration) (t0, t1 int64) {
	day := startDay.AddDate(0, 0, rng.Intn(fx.cfg.days)).UnixNano()
	slack := int64((fx.span() - width) / time.Millisecond)
	t0 = day + rng.Int63n(slack+1)*int64(time.Millisecond)
	return t0, t0 + int64(width)
}

// aggQuery is the Figure-1 Q1 shape: AVG/MIN/MAX (plus COUNT, which makes
// the answer checkable exactly) of one series over a time window.
func aggQuery(station, channel string, t0, t1 int64) *query {
	return &query{
		class: classAgg, station: station, channel: channel, t0: t0, t1: t1,
		sql: fmt.Sprintf("%s WHERE F.station = '%s' AND F.channel = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'",
			aggSelect, station, channel, tsLit(t0), tsLit(t1)),
	}
}

// coldScanQuery draws the agg shape over a uniformly random series-day of
// the whole fleet.
func (fx *fixture) coldScanQuery(rng *rand.Rand) *query {
	st := fx.cfg.stations[rng.Intn(len(fx.cfg.stations))]
	ch := fx.cfg.channels[rng.Intn(len(fx.cfg.channels))]
	t0, t1 := fx.randomWindow(rng, fx.cfg.scanWindow)
	return aggQuery(st.Code, ch, t0, t1)
}

// warmAggQuery draws the agg shape over the warm set.
func (fx *fixture) warmAggQuery(rng *rand.Rand) *query {
	st := fx.warm()[rng.Intn(fx.cfg.warmStations)]
	t0, t1 := fx.randomWindow(rng, fx.cfg.scanWindow)
	return aggQuery(st.Code, "BHZ", t0, t1)
}

// fileAggQuery is the agg shape over the first scanWindow of one given
// file-day (refresh_mix asks it of a pool file-day right after adding it).
func (fx *fixture) fileAggQuery(fd *fileData) *query {
	t0 := fd.day.UnixNano()
	q := aggQuery(fd.station.Code, fd.channel, t0, t0+int64(fx.cfg.scanWindow))
	q.fresh = fd.uri
	return q
}

// warmQueries draws n requests of warm_serve's mix: block after block of
// warmMix's counts, each block in a seeded random order.
func (fx *fixture) warmQueries(rng *rand.Rand, n int) []*query {
	var block []class
	for _, m := range warmMix {
		for i := 0; i < m.n; i++ {
			block = append(block, m.c)
		}
	}
	qs := make([]*query, n)
	for i := range qs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		qs[i] = fx.warmQuery(block[i%len(block)], rng)
	}
	return qs
}

// warmQuery draws one request of the given warm_serve class.
func (fx *fixture) warmQuery(c class, rng *rand.Rand) *query {
	switch c {
	case classPoint:
		st := fx.cfg.stations[rng.Intn(len(fx.cfg.stations))]
		ch := fx.cfg.channels[rng.Intn(len(fx.cfg.channels))]
		seq := 1 + rng.Intn(fx.minRecords) // every file-day of the series has this record
		return &query{class: c, station: st.Code, channel: ch, seqno: seq, params: []any{st.Code, ch, seq}}
	case classCached:
		i := rng.Intn(len(fx.cached))
		return &query{class: c, idx: i, sql: fx.cached[i]}
	case classAgg:
		return fx.warmAggQuery(rng)
	case classHunt:
		st := fx.warm()[rng.Intn(fx.cfg.warmStations)]
		thr := 2500 + float64(rng.Intn(60000))/10
		return &query{class: c, station: st.Code, channel: "BHZ", thr: thr,
			sql: fmt.Sprintf("SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '%s' AND F.channel = 'BHZ' AND D.sample_value > %.1f", st.Code, thr)}
	case classJoin:
		t0, _ := fx.randomWindow(rng, 0)
		return &query{class: c, t0: t0,
			sql: "SELECT F.station, F.channel, COUNT(*), SUM(R.num_samples) " +
				"FROM mseed.files F JOIN mseed.records R ON F.file_id = R.file_id " +
				"WHERE R.start_time >= '" + tsLit(t0) + "' GROUP BY F.station, F.channel ORDER BY F.station, F.channel"}
	default: // classFetch
		st := fx.warm()[rng.Intn(fx.cfg.warmStations)]
		t0, t1 := fx.randomWindow(rng, fx.cfg.fetchWindow)
		return &query{class: classFetch, station: st.Code, channel: "BHZ", t0: t0, t1: t1,
			sql: fmt.Sprintf("SELECT D.sample_time, D.sample_value FROM mseed.dataview WHERE F.station = '%s' AND F.channel = 'BHZ' AND D.sample_time >= '%s' AND D.sample_time < '%s'",
				st.Code, tsLit(t0), tsLit(t1))}
	}
}

// cachedSQL is the fixed dashboard set: four metadata statements and one
// whole-series aggregate per warm station (eight at the benchmark's size).
// After their first execution they are result-cache hits.
func cachedSQL(warm []seisgen.Station) []string {
	out := []string{
		"SELECT station, COUNT(*) FROM mseed.files GROUP BY station ORDER BY station",
		"SELECT COUNT(*), SUM(num_samples) FROM mseed.records",
		"SELECT network, COUNT(*), SUM(num_samples) FROM mseed.files GROUP BY network ORDER BY network",
		"SELECT channel, SUM(num_records) FROM mseed.files GROUP BY channel ORDER BY channel",
	}
	for _, st := range warm {
		out = append(out, fmt.Sprintf("%s WHERE F.station = '%s' AND F.channel = 'BHZ'", aggSelect, st.Code))
	}
	return out
}

// agg is the oracle's running aggregate over samples.
type agg struct {
	n        int
	sum      float64
	min, max int32
}

func (a *agg) add(v int32) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += float64(v)
}

func (a *agg) row() []any {
	return []any{approx(a.sum / float64(a.n)), float64(a.min), float64(a.max), float64(a.n)}
}

// scan calls f for every sample of the series with t0 <= time < t1
// (t1 == 0: unbounded), in file, record, sample order.
func (fx *fixture) scan(station, channel string, t0, t1 int64, f func(t int64, v int32)) {
	for _, fd := range fx.series[seriesKey(station, channel)] {
		for _, r := range fd.records {
			if t1 != 0 && (r.sampleTime(r.n-1) < t0 || r.startNs >= t1) {
				continue
			}
			for i := 0; i < r.n; i++ {
				t := r.sampleTime(i)
				if t1 == 0 || (t >= t0 && t < t1) {
					f(t, fd.samples[r.first+i])
				}
			}
		}
	}
}

// groupBy sums per-file columns over the fleet by a key, returning rows
// sorted by key.
func (fx *fixture) groupBy(key func(*fileData) string, cols func(*fileData) []float64) [][]any {
	sums := map[string][]float64{}
	for _, fd := range fx.files {
		k, c := key(fd), cols(fd)
		if sums[k] == nil {
			sums[k] = make([]float64, len(c))
		}
		for i, v := range c {
			sums[k][i] += v
		}
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]any, len(keys))
	for i, k := range keys {
		rows[i] = []any{k}
		for _, v := range sums[k] {
			rows[i] = append(rows[i], v)
		}
	}
	return rows
}

// expect computes the rows the query must return. sorted reports that the
// statement carries no ORDER BY, so both sides are compared sorted by
// their first column.
func (fx *fixture) expect(q *query) (rows [][]any, sorted bool) {
	switch q.class {
	case classAgg:
		var a agg
		fx.scan(q.station, q.channel, q.t0, q.t1, func(_ int64, v int32) { a.add(v) })
		return [][]any{a.row()}, false
	case classHunt:
		n := 0
		fx.scan(q.station, q.channel, 0, 0, func(_ int64, v int32) {
			if float64(v) > q.thr {
				n++
			}
		})
		return [][]any{{float64(n)}}, false
	case classFetch:
		fx.scan(q.station, q.channel, q.t0, q.t1, func(t int64, v int32) {
			rows = append(rows, []any{tsLit(t), float64(v)})
		})
		return rows, false
	case classPoint:
		for _, fd := range fx.series[seriesKey(q.station, q.channel)] {
			for _, r := range fd.records {
				if r.seqno == q.seqno {
					rows = append(rows, []any{fd.uri, float64(r.seqno), tsLit(r.startNs), float64(r.n)})
				}
			}
		}
		return rows, true
	case classJoin:
		type key struct{ st, ch string }
		cnt, sum := map[key]float64{}, map[key]float64{}
		var keys []key
		for _, fd := range fx.files {
			k := key{fd.station.Code, fd.channel}
			for _, r := range fd.records {
				if r.startNs >= q.t0 {
					if cnt[k] == 0 {
						keys = append(keys, k)
					}
					cnt[k]++
					sum[k] += float64(r.n)
				}
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].st != keys[j].st {
				return keys[i].st < keys[j].st
			}
			return keys[i].ch < keys[j].ch
		})
		for _, k := range keys {
			rows = append(rows, []any{k.st, k.ch, cnt[k], sum[k]})
		}
		return rows, false
	case classQ2:
		for _, st := range fx.cfg.stations {
			if st.Network != "NL" {
				continue
			}
			var a agg
			fx.scan(st.Code, "BHZ", q.t0, q.t1, func(_ int64, v int32) { a.add(v) })
			rows = append(rows, []any{st.Code, float64(a.min), float64(a.max)})
		}
		return rows, true
	default: // classCached
		one := func(*fileData) []float64 { return []float64{1} }
		switch q.idx {
		case 0:
			return fx.groupBy(func(fd *fileData) string { return fd.station.Code }, one), false
		case 1:
			return [][]any{{float64(fx.records), float64(fx.samples)}}, false
		case 2:
			return fx.groupBy(func(fd *fileData) string { return fd.station.Network },
				func(fd *fileData) []float64 { return []float64{1, float64(len(fd.samples))} }), false
		case 3:
			return fx.groupBy(func(fd *fileData) string { return fd.channel },
				func(fd *fileData) []float64 { return []float64{float64(len(fd.records))} }), false
		default:
			var a agg
			fx.scan(fx.warm()[q.idx-4].Code, "BHZ", 0, 0, func(_ int64, v int32) { a.add(v) })
			return [][]any{a.row()}, false
		}
	}
}

// expectCount is the number of rows the query must return, computed
// without building them where that is cheaper.
func (fx *fixture) expectCount(q *query) int {
	switch q.class {
	case classAgg, classHunt:
		return 1
	case classFetch:
		n := 0
		fx.scan(q.station, q.channel, q.t0, q.t1, func(int64, int32) { n++ })
		return n
	default:
		rows, _ := fx.expect(q)
		return len(rows)
	}
}

// checkRows compares a decoded answer (JSON numbers as float64) against
// the oracle's rows.
func checkRows(got, want [][]any, sorted bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if sorted {
		byFirst := func(rows [][]any) {
			sort.SliceStable(rows, func(i, j int) bool { return fmt.Sprint(rows[i][0]) < fmt.Sprint(rows[j][0]) })
		}
		byFirst(got)
		byFirst(want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !cellEqual(got[i][j], w) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

func cellEqual(got, want any) bool {
	switch w := want.(type) {
	case approx:
		g, ok := got.(float64)
		return ok && math.Abs(g-float64(w)) <= 1e-9*math.Max(math.Abs(float64(w)), 1e-300)
	case float64:
		g, ok := got.(float64)
		return ok && g == w
	case string:
		g, ok := got.(string)
		return ok && g == w
	default:
		return false
	}
}

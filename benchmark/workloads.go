package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	lazyetl "repro"
	"repro/internal/column"
	"repro/internal/repo"
)

// runOpts is what the driver's four arguments select.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// runResult is what a workload hands back: the samples of its measured
// window and the readings taken at the window's edges. Everything derived
// (verification, metrics) happens afterwards, outside the timed path.
type runResult struct {
	samples []sample
	start   time.Time // the measured window is [start, start+window)
	window  time.Duration
	open    bool          // open loop: samples carry generator lateness
	cpu     time.Duration // daemon (refresh_mix: process) CPU over the window
	before  *counters
	after   *counters
	// counterSpan, when set, says before/after bracket a single query that
	// took this long, not the whole window (cold_start).
	counterSpan time.Duration
	layer       map[string]float64 // per-layer values the workload measured itself
}

// measured reports whether the sample completed inside the measured window.
func (r *runResult) measured(s *sample) bool { return s.done >= 0 && s.done < r.window }

// budgeted is the serving daemons' production shape: a finite
// execution-memory budget, default workers and admission slots.
var budgeted = []string{"-mem-budget", strconv.Itoa(daemonMemBudget)}

// serve starts a daemon over repoDir and a client for it.
func (e *env) serve(repoDir, mode string, extra ...string) (*daemon, *client, error) {
	ctl := newHTTPClient(1)
	args := append([]string{"-mode", mode}, extra...)
	d, err := e.startDaemon(ctl, repoDir, args...)
	if err != nil {
		return nil, nil, err
	}
	return d, &client{load: newHTTPClient(connections), ctl: ctl, base: d.base}, nil
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// observe brackets the measured window with /stats and daemon CPU readings
// while the load goroutines run; it returns when the window has closed.
func (r *runResult) observe(d *daemon, c *client, start time.Time) error {
	sleepUntil(start)
	before, err := c.stats()
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	sleepUntil(start.Add(r.window))
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	if r.after, err = c.stats(); err != nil {
		return err
	}
	r.before, r.cpu = before, cpu1-cpu0
	r.layer["lazyetld.cpu_util"] = r.cpu.Seconds() / (r.window.Seconds() * float64(runtime.NumCPU()))
	r.layer["lazyetld.rss_peak_mb"] = procRSSPeakMB(d.pid())
	r.layer["lazyetld.ready_ms"] = ms(d.ready)
	return nil
}

// closedLoop runs `connections` clients, each sending its next request
// when the previous one completes, from now until start+window. Requests
// sent before start are the warm-up and are dropped. In a traced run every
// other request asks for its span tree, so traced and untraced latencies
// come from the same seconds of the same daemon.
func closedLoop(c *client, seed int64, gen func(*rand.Rand) *query, start time.Time, window time.Duration, trace bool) []sample {
	end := start.Add(window)
	per := make([][]sample, connections)
	var wg sync.WaitGroup
	for id := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
			for i := 0; time.Now().Before(end); i++ {
				q := gen(rng)
				traced := trace && i%2 == 1
				t0 := time.Now()
				body, status, err := c.do(q, traced)
				t1 := time.Now()
				if t0.Before(start) {
					continue
				}
				per[id] = append(per[id], sample{
					class: q.class, traced: traced, ok: err == nil && status == http.StatusOK,
					done: t1.Sub(start), lat: t1.Sub(t0), svc: t1.Sub(t0), resp: body, q: q,
				})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends request i at first + i/rate regardless of completions,
// over at most `connections` connections, and times each from its due
// time: a stall is charged to every request it delays. Requests due before
// start are the warm-up and are dropped.
func openLoop(c *client, qs []*query, rate float64, first, start time.Time, trace bool) []sample {
	out := make([]sample, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				due := dueAt(first, i, rate)
				waited := waitUntil(due)
				traced := trace && i%2 == 1
				t0 := time.Now()
				body, status, err := c.do(qs[i], traced)
				out[i] = openSample(qs[i], due, t0, time.Now(), start, waited, err == nil && status == http.StatusOK, traced, body)
			}
		}()
	}
	wg.Wait()
	// Drop the warm-up: everything due before start.
	firstMeasured := 0
	for firstMeasured < len(out) && out[firstMeasured].done-out[firstMeasured].lat < 0 {
		firstMeasured++
	}
	return out[firstMeasured:]
}

// dueAt is when request i of an open loop at rate, begun at first, is due.
func dueAt(first time.Time, i int, rate float64) time.Time {
	return first.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openSample times one open-loop request from its due time: lat includes
// whatever the request waited behind, svc only send-to-answer.
func openSample(q *query, due, sent, done, start time.Time, waited, ok, traced bool, body []byte) sample {
	return sample{
		class: q.class, traced: traced, ok: ok,
		done: done.Sub(start), lat: done.Sub(due), svc: done.Sub(sent),
		late: sent.Sub(due), waited: waited, resp: body, q: q,
	}
}

// waitUntil blocks until t and reports whether there was anything to wait
// for (false: the generator was already behind, all connections busy). It
// sleeps to a millisecond short of t and spins through the rest: a timer
// wake-up alone is late by up to a millisecond on a busy 2-core box, and
// yielding instead of spinning hands the thread to the other connection's
// response handling for just as long.
func waitUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	if d > spinBefore {
		time.Sleep(d - spinBefore)
	}
	for time.Now().Before(t) {
	}
	return true
}

// coldStart: spawn lazyetld on the fleet, wait for /readyz, ask Figure-1
// Q2, kill — for opts.seconds. One sample per cycle, latency = spawn to
// answer received. The traced run adds eagerCycles cycles with -mode eager
// on the day-0 slice.
func coldStart(e *env, fx *fixture, o runOpts) (*runResult, error) {
	r := &runResult{layer: map[string]float64{}}
	var ready []float64
	cycle := func(repoDir, mode string, q *query, i int, start time.Time) (sample, error) {
		d, c, err := e.serve(repoDir, mode)
		if err != nil {
			return sample{}, err
		}
		defer c.ctl.CloseIdleConnections()
		defer c.load.CloseIdleConnections()
		defer d.stop()
		traced := o.trace && i%2 == 1
		body, status, err := c.do(q, traced)
		t1 := time.Now()
		r.layer["lazyetld.rss_peak_mb"] = max(r.layer["lazyetld.rss_peak_mb"], procRSSPeakMB(d.pid()))
		if mode == "lazy" {
			if st, serr := c.stats(); serr == nil {
				// One fresh daemon's counters after its one query: the
				// catalog holds metadata only.
				r.after, r.counterSpan = st, t1.Sub(d.spawn)-d.ready
			}
			ready = append(ready, ms(d.ready))
			r.cpu += d.stop()
		}
		first := t1.Sub(d.spawn)
		return sample{class: classQ2, traced: traced, ok: err == nil && status == http.StatusOK,
			done: t1.Sub(start), lat: first, svc: first - d.ready, resp: body, q: q}, nil
	}

	q2 := &query{class: classQ2, sql: q2SQL}
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || i < minColdCycles; i++ {
		s, err := cycle(fx.dir, "lazy", q2, i, start)
		if err != nil {
			return nil, err
		}
		r.samples = append(r.samples, s)
	}
	r.start, r.window = start, time.Since(start)
	r.before = &counters{}
	r.layer["lazyetld.ready_ms"] = median(ready)
	r.layer["lazyetld.cpu_util"] = r.cpu.Seconds() / (r.window.Seconds() * float64(runtime.NumCPU()))

	if o.trace {
		day0 := &query{class: classQ2, sql: q2SQL, t1: startDay.AddDate(0, 0, 1).UnixNano()}
		for i := 0; i < eagerCycles; i++ {
			s, err := cycle(fx.day0Dir, "eager", day0, 0, start)
			if err != nil {
				return nil, err
			}
			s.class = classEagerQ2
			s.done = -1 // outside the measured window
			r.samples = append(r.samples, s)
		}
	}
	return r, nil
}

// coldScan: closed loop, recycler far smaller than the decoded fleet; every
// request aggregates a random window of a random series-day.
func coldScan(e *env, fx *fixture, o runOpts) (*runResult, error) {
	d, c, err := e.serve(fx.dir, "lazy", append(budgeted, "-cache", strconv.Itoa(coldScanCache))...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	start := time.Now().Add(fx.cfg.warmUp)
	r := &runResult{start: start, window: o.seconds, layer: map[string]float64{}}
	done := make(chan []sample, 1)
	go func() { done <- closedLoop(c, o.seed, fx.coldScanQuery, start, r.window, o.trace) }()
	err = r.observe(d, c, start)
	r.samples = <-done
	return r, err
}

// warmServe: open loop at warmRate over the pre-touched warm set, a seeded
// weighted mix of six request classes, one /metrics scrape per second.
func warmServe(e *env, fx *fixture, o runOpts) (*runResult, error) {
	d, c, err := e.serve(fx.dir, "lazy", budgeted...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := c.prepare(); err != nil {
		return nil, err
	}
	// Pre-touch with the dashboard statements: the per-station aggregates
	// pull the whole warm set through extraction into the recycler and
	// collect its zone maps, and every answer enters the result cache.
	for i, s := range fx.cached {
		if _, status, err := c.do(&query{class: classCached, idx: i, sql: s}, false); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("pre-touch %q: status %d: %v", s, status, err)
		}
	}

	r := &runResult{window: o.seconds, open: true, layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(o.seed))
	qs := fx.warmQueries(rng, int((fx.cfg.warmUp+r.window).Seconds()*warmRate))
	first := time.Now().Add(50 * time.Millisecond)
	start := first.Add(fx.cfg.warmUp)
	r.start = start
	done := make(chan []sample, 1)
	go func() { done <- openLoop(c, qs, warmRate, first, start, o.trace) }()

	scrapes := make(chan []float64, 1)
	go func() {
		var us []float64
		for t := start; t.Before(start.Add(r.window)); t = t.Add(time.Second) {
			sleepUntil(t)
			t0 := time.Now()
			if _, err := get(c.ctl, c.base+"/metrics"); err == nil {
				us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
		scrapes <- us
	}()
	err = r.observe(d, c, start)
	r.samples = <-done
	r.layer["obs.metrics_scrape_us"] = median(<-scrapes)
	return r, err
}

// refreshMix: one closed-loop reader beside an updater on a fixed
// schedule, in-process because lazyetld has no refresh endpoint. Tick k
// touches warm file-day k mod N (same bytes, new mtime), every
// refreshPoolEach-th tick also adds a pool file-day, then calls Refresh.
// The reader's first query after such a Refresh targets the new file-day.
func refreshMix(e *env, fx *fixture, o runOpts) (*runResult, error) {
	w, err := lazyetl.Open(fx.dir, lazyetl.Options{Mode: lazyetl.Lazy, MemoryBudget: daemonMemBudget})
	if err != nil {
		return nil, err
	}
	var warmFiles []string
	for _, st := range fx.warm() {
		for _, fd := range fx.series[seriesKey(st.Code, "BHZ")] {
			warmFiles = append(warmFiles, filepath.Join(fx.dir, fd.uri))
			if _, err := w.Query(fx.fileAggQuery(fd).sql); err != nil { // pre-touch
				return nil, err
			}
		}
	}

	start := time.Now().Add(fx.cfg.warmUp)
	r := &runResult{start: start, window: o.seconds, layer: map[string]float64{}}
	end := start.Add(r.window)
	var pending atomic.Pointer[fileData]
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(o.seed))
		for i := 0; time.Now().Before(end); i++ {
			var q *query
			if fd := pending.Swap(nil); fd != nil {
				q = fx.fileAggQuery(fd)
			} else {
				q = fx.warmAggQuery(rng)
			}
			t0 := time.Now()
			res, err := w.Query(q.sql)
			t1 := time.Now()
			if t0.Before(start) {
				continue
			}
			s := sample{class: classAgg, traced: o.trace && i%2 == 1, ok: err == nil,
				done: t1.Sub(start), lat: t1.Sub(t0), svc: t1.Sub(t0), q: q}
			if err == nil {
				s.ans = &answer{Rows: boxRows(res), RowCount: res.Batch.NumRows(), ElapsedNS: int64(res.Elapsed)}
				if s.traced {
					s.ans.Trace = res.Trace.Spans
				}
			}
			r.samples = append(r.samples, s)
		}
	}()

	var refreshMs, drainMs []float64
	var updErr error
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		added := 0
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * fx.cfg.refreshPeriod)
			if !due.Before(end) {
				return
			}
			sleepUntil(due)
			if updErr = repo.Touch(warmFiles[k%len(warmFiles)], time.Time{}); updErr != nil {
				return
			}
			var fresh *fileData
			if (k+1)%fx.cfg.refreshPoolEach == 0 && added < len(fx.pool) {
				if fresh, updErr = fx.addPoolFile(added); updErr != nil {
					return
				}
				added++
			}
			t0 := time.Now()
			st, err := w.Refresh()
			wall := time.Since(t0)
			if updErr = err; err != nil {
				return
			}
			refreshMs = append(refreshMs, ms(wall))
			drainMs = append(drainMs, ms(wall-st.Duration))
			if fresh != nil {
				pending.Store(fresh)
			}
		}
	}()

	sleepUntil(start)
	r.before = inProcessCounters(w)
	cpu0 := selfCPU()
	sleepUntil(end)
	r.cpu = selfCPU() - cpu0
	wg.Wait()
	r.after = inProcessCounters(w)
	if updErr != nil {
		return nil, fmt.Errorf("updater: %w", updErr)
	}
	r.layer["refresh_p50_ms"] = median(refreshMs)
	r.layer["warehouse.refresh_drain_ms"] = median(drainMs)
	return r, nil
}

// boxRows converts an in-process result to the shape a decoded JSON answer
// has: numbers as float64, strings and timestamps as strings.
func boxRows(res *lazyetl.Result) [][]any {
	rows := make([][]any, res.Batch.NumRows())
	for i := range rows {
		vals := res.Batch.Row(i)
		rows[i] = make([]any, len(vals))
		for j, v := range vals {
			switch {
			case v.Null:
				rows[i][j] = nil
			case v.Type == column.Float64:
				rows[i][j] = v.F
			case v.Type == column.Int64:
				rows[i][j] = float64(v.I)
			default:
				rows[i][j] = v.String()
			}
		}
	}
	return rows
}

// selfCPU is this process's utime+stime.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

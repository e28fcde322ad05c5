package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// report is one run's outcome: what the last output line carries, plus the
// notes and sample counts the human-readable table prints.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	N         map[string]int     `json:"n"`
	Speed     float64            `json:"speed_factor"` // end-to-end timings are divided by it (speed.go)
	Notes     []string           `json:"notes,omitempty"`
	// Void lists the validity limits a traced run exceeded (config.go); the
	// run still prints its figures, and --selfcheck fails on any entry.
	Void []string `json:"void,omitempty"`

	classFold [numClasses]*fold // traced runs: the fold per request class, for the table
}

// fold accumulates span self time by per-layer metric over traced queries.
type fold struct {
	ns        map[string]int64
	trees     int
	elapsed   int64 // summed server elapsed_ns of the folded queries
	readBytes int64 // bytes of the "read" spans
	readNs    int64
}

func newFold() *fold { return &fold{ns: map[string]int64{}} }

func (f *fold) add(tree *obs.SpanNode, elapsedNS int64) {
	foldSelf(tree, f.ns)
	f.trees++
	f.elapsed += elapsedNS
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "read" {
			f.readBytes += n.Bytes
			f.readNs += n.Nanos
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
}

// etlShare is the share of the folded self time that extraction (read,
// decode, prefetch stall, assemble) accounts for.
func (f *fold) etlShare() float64 {
	var etl, all int64
	for m, ns := range f.ns {
		all += ns
		switch m {
		case "etl.read_us", "etl.decode_us", "etl.prefetch_stall_us", "etl.assemble_us":
			etl += ns
		}
	}
	return ratio(etl, all)
}

// verified is what the verification pass reads off the answers before it
// drops them: the HTTP + JSON edge (client service time beyond the
// warehouse's own elapsed time, ms) and the fold of the traced requests.
type verified struct {
	edge, edgeFetch []float64
	fold            *fold
}

// verify parses every answer and checks it against the oracle — every
// answer's row count, every verifyEvery-th answer's values, and always the
// first answer over a freshly added file-day. A sample that fails is marked
// not ok, so it misses every latency figure. traces, when non-nil, receives
// the raw span trees as JSON lines.
func (rep *report) verify(r *runResult, fx *fixture, traces io.Writer) verified {
	var tw *bufio.Writer
	if traces != nil {
		tw = bufio.NewWriter(traces)
		defer tw.Flush()
	}
	v := verified{fold: newFold()}
	for i := range r.samples {
		s := &r.samples[i]
		overHTTP := s.resp != nil
		if s.ok && overHTTP {
			var err error
			if s.ans, err = parseAnswer(s.resp); err != nil {
				s.ok = false
				rep.note("%s #%d: undecodable answer: %v", classNames[s.class], i, err)
			}
			s.resp = nil
		}
		if !s.ok {
			rep.Failed++
			continue
		}
		q := s.q
		var err error
		if i%verifyEvery == 0 || q.fresh != "" {
			want, sorted := fx.expect(q)
			err = checkRows(s.ans.Rows, want, sorted)
		} else if want := fx.expectCount(q); s.ans.RowCount != want || len(s.ans.Rows) != want {
			err = fmt.Errorf("%d rows, want %d", s.ans.RowCount, want)
		}
		if err != nil {
			s.ok = false
			rep.Failed++
			rep.note("%s #%d: %v: %s", classNames[s.class], i, err, q.sql)
			continue
		}
		if overHTTP {
			e := ms(s.svc - time.Duration(s.ans.ElapsedNS))
			v.edge = append(v.edge, e)
			if s.class == classFetch {
				v.edgeFetch = append(v.edgeFetch, e)
			}
		}
		if tree := s.ans.Trace; tree != nil {
			v.fold.add(tree, s.ans.ElapsedNS)
			if rep.classFold[s.class] == nil {
				rep.classFold[s.class] = newFold()
			}
			rep.classFold[s.class].add(tree, s.ans.ElapsedNS)
			if tw != nil {
				b, _ := json.Marshal(struct {
					Class     string        `json:"class"`
					ElapsedNS int64         `json:"elapsed_ns"`
					Trace     *obs.SpanNode `json:"trace"`
				}{classNames[s.class], s.ans.ElapsedNS, tree})
				tw.Write(b)
				tw.WriteByte('\n')
			}
		}
		s.ans = nil
	}
	return v
}

// finish verifies the run — outside the timed path — and derives every
// metric from its samples and readings.
func finish(r *runResult, fx *fixture, o runOpts, setupS, speed float64, probed map[string]float64, traces io.Writer) *report {
	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		Attempted: len(r.samples), E2E: map[string]float64{}, N: map[string]int{},
	}
	v := rep.verify(r, fx, traces)

	// End-to-end: medians over equal sub-windows of the measured window,
	// from the verified queries that completed inside it; CPU over all of it.
	// Timings are divided by the window's speed factor; so is the time a
	// closed loop takes per completion, but not an open loop's arrival rate.
	f := windowFigures(r.samples, r.window, workloadNamed(o.workload).tail)
	rep.N["lat"], rep.N["sub_windows"] = f.n, f.parts
	rep.Speed = speed
	rep.E2E["setup_s"] = setupS
	rep.E2E["throughput_qps"] = f.qps
	if !r.open {
		rep.E2E["throughput_qps"] *= speed
	}
	rep.E2E["lat_p50_ms"] = f.p50 / speed
	rep.E2E["lat_tail_ms"] = f.tail / speed
	rep.E2E["cpu_ms_per_query"] = ms(r.cpu) / float64(max(f.n, 1)) / speed

	if o.trace {
		rep.perLayer(r, v, f.n, probed)
	}
	return rep
}

// perLayer fills rep.Layer from the traced run's readings.
func (rep *report) perLayer(r *runResult, v verified, completed int, probed map[string]float64) {
	all := v.fold

	// Start from zero for every name so each workload reports
	// every metric, then overlay what this run measured.
	rep.Layer = map[string]float64{}
	for _, m := range perLayer {
		rep.Layer[m.name] = 0
	}
	for k, v := range probed {
		rep.Layer[k] = v
	}
	if r.before != nil && r.after != nil {
		nq, span := completed, r.window
		if r.counterSpan > 0 { // cold_start: one fresh daemon's counters after one query
			nq, span = 1, r.counterSpan
		}
		for k, v := range counterMetrics(r.before, r.after, nq, span) {
			rep.Layer[k] = v
		}
	}
	for k, v := range r.layer {
		rep.Layer[k] = v
	}

	byClass := func(c class) []float64 {
		return sortedCopy(latencies(r.samples, func(s *sample) bool { return s.class == c }))
	}
	classP := func(name string, c class, p float64) {
		l := byClass(c)
		rep.Layer[name] = percentile(l, p)
		rep.N[name] = len(l)
	}
	classP("first_answer_ms", classQ2, 50)
	classP("eager_first_answer_ms", classEagerQ2, 50)
	classP("point_p50_ms", classPoint, 50)
	classP("point_p95_ms", classPoint, 95)
	classP("cached_p50_ms", classCached, 50)
	classP("agg_p50_ms", classAgg, 50)
	classP("hunt_p50_ms", classHunt, 50)
	classP("join_p50_ms", classJoin, 50)
	classP("fetch_p50_ms", classFetch, 50)
	inWindow := sortedCopy(latencies(r.samples, r.measured))
	rep.Layer["lat_mean_ms"] = mean(inWindow)
	rep.Layer["lat_p90_ms"] = percentile(inWindow, 90)

	rep.Layer["driver.sent"] = float64(rep.Attempted)
	rep.Layer["driver.speed_factor"] = rep.Speed
	if r.open {
		var late []float64
		behind := 0
		for i := range r.samples {
			s := &r.samples[i]
			late = append(late, ms(s.late))
			if !s.waited {
				behind++
			}
		}
		rep.Layer["driver.late_p95_ms"] = percentile(sortedCopy(late), 95)
		rep.Layer["driver.backlog_frac"] = float64(behind) / float64(max(len(r.samples), 1))
		if l := rep.Layer["driver.late_p95_ms"]; l > ms(maxLateP95) {
			rep.void("driver.late_p95_ms = %.3f: the generator sent more than 5 %% of the requests over %v late", l, maxLateP95)
		}
	}
	// Tracing overhead: service-time p50 of the requests that asked for
	// their tree over that of their untraced neighbours in the same window.
	svc := func(traced bool) float64 {
		var v []float64
		for i := range r.samples {
			if s := &r.samples[i]; s.ok && r.measured(s) && s.traced == traced {
				v = append(v, ms(s.svc))
			}
		}
		return median(v)
	}
	if plain := svc(false); plain > 0 {
		over := svc(true)/plain - 1
		rep.Layer["driver.trace_overhead_frac"] = over
		if over > maxTraceOverhead {
			rep.void("driver.trace_overhead_frac = %.3f: asking for span trees slowed requests by more than %g", over, maxTraceOverhead)
		}
	}
	rep.Layer["lazyetld.edge_p50_ms"] = median(v.edge)
	rep.Layer["lazyetld.edge_fetch_p50_ms"] = median(v.edgeFetch)

	if all.trees > 0 {
		for m, ns := range all.ns {
			rep.Layer[m] = float64(ns) / 1e3 / float64(all.trees)
		}
		rep.Layer["trace.queries"] = float64(all.trees)
		cover := 1 - ratio(all.ns[otherBucket], all.elapsed)
		rep.Layer["trace.coverage_frac"] = cover
		if rep.Workload == "cold_scan" && cover < minCoverage {
			rep.void("trace.coverage_frac = %.3f: the folded spans explain less than %g of the server's time", cover, minCoverage)
		}
		if all.readNs > 0 && probed["hw.seq_read_mb_s"] > 0 {
			achieved := float64(all.readBytes) / 1e6 / (float64(all.readNs) / 1e9)
			rep.Layer["etl.read_gap_x"] = probed["hw.seq_read_mb_s"] / achieved
		}
	}
}

func (rep *report) note(format string, args ...any) {
	if len(rep.Notes) < 10 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(format, args...))
	}
}

func (rep *report) void(format string, args ...any) {
	rep.Void = append(rep.Void, fmt.Sprintf(format, args...))
}

// metricValue is the shape of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
func (rep *report) resultLine() string {
	defs, vals := endToEnd, rep.E2E
	if rep.Trace {
		defs, vals = perLayer, rep.Layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // NaN/Inf in a metric: a code bug
	}
	return string(b)
}

// table renders every metric of the run by name with its unit.
func (rep *report) table(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  trace=%v  attempted %d  failed %d (failed_frac %.4f)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	fmt.Fprintf(w, "  latency: n=%d, median of %d sub-window(s), tail = p%g (the tail rule allows p%g at n per sub-window)\n",
		rep.N["lat"], rep.N["sub_windows"], workloadNamed(rep.Workload).tail, tailPercentile(rep.N["lat"]/max(rep.N["sub_windows"], 1)))
	fmt.Fprintf(w, "  speed factor %.3f: the end-to-end timings below are as measured divided by it\n", rep.Speed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, rep.E2E[m.name], m.unit)
	}
	if rep.Layer != nil {
		fmt.Fprintln(w, "  per layer (S metrics: mean self time per traced query; disk figures are the sandbox's warm page cache, not a device's):")
		for _, m := range perLayer {
			n := ""
			if c, ok := rep.N[m.name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", m.name, rep.Layer[m.name], m.unit, n)
		}
		for c, f := range rep.classFold {
			if f != nil {
				fmt.Fprintf(w, "  class %-8s traced=%-5d etl share of self time %.3f\n", classNames[c], f.trees, f.etlShare())
			}
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, v := range rep.Void {
		fmt.Fprintln(w, "  VOID:", v)
	}
}

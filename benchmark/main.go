// Command benchmark is the repository's end-to-end benchmark: it generates
// a seeded mSEED fleet, builds and spawns the real cmd/lazyetld, replays
// one of four workloads against it, checks the answers against its own
// oracle and prints every metric by name and unit. See README.md.
//
//	bash benchmark/run.sh --workload cold_scan --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload warm_serve --seed 1 --seconds 20 --trace 1
//	bash benchmark/run.sh --probes --seed 1
//	bash benchmark/run.sh --selfcheck --seconds 20 --out benchmark/results/seed.json
//
// The last line of standard output is one JSON object {"correct",
// "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var o runOpts
	workload := flag.String("workload", "", "cold_start, cold_scan, warm_serve or refresh_mix")
	flag.Int64Var(&o.seed, "seed", 1, "fixture and request seed")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	probesOnly := flag.Bool("probes", false, "time the layer probes on the fixture and exit")
	out := flag.String("out", "", "selfcheck: also write the comparison as JSON to this file")
	flag.Parse()
	o.workload, o.seconds, o.trace = *workload, time.Duration(*seconds)*time.Second, *trace != 0

	if err := run(o, *selfcheck, *probesOnly, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run expects the working directory to be the checkout (run.sh sees to it):
// cmd/lazyetld is built from there and everything written goes under its
// .bench_build.
func run(o runOpts, selfcheck, probesOnly bool, out string) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	e, err := newEnv(root, filepath.Join(root, ".bench_build"))
	if err != nil {
		return err
	}
	e.cleanupOnSignal()
	defer e.cleanup()

	switch {
	case selfcheck:
		return e.selfcheck(o, out)
	case probesOnly:
		fx, _, err := e.setUp(fleetCfg, o.seed)
		if err != nil {
			return err
		}
		p, err := probes(fx)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(p))
		for k := range p {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-34s %14.4f\n", k, p[k])
		}
		return nil
	}
	if workloadNamed(o.workload) == nil {
		return fmt.Errorf("unknown --workload %q (want cold_start, cold_scan, warm_serve or refresh_mix)", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	rep, err := e.runOne(fleetCfg, o)
	if err != nil {
		return err
	}
	rep.table(os.Stdout)
	fmt.Println(rep.resultLine())
	return nil
}

// runOne is one complete run: set-up, (traced runs) probes, the workload,
// verification.
func (e *env) runOne(cfg fixtureCfg, o runOpts) (*report, error) {
	fx, setupS, err := e.setUp(cfg, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var probed map[string]float64
	var traces *os.File
	if o.trace {
		// Probes run before the workload: refresh_mix grows the fleet.
		if probed, err = probes(fx); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		dir := filepath.Join(e.build, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if traces, err = os.Create(filepath.Join(dir, o.workload+".jsonl")); err != nil {
			return nil, err
		}
		defer traces.Close()
	}
	// Three set-ups leave a variable amount of garbage behind; collect it so
	// every run's measured window starts from the same heap (refresh_mix
	// runs the warehouse inside this process).
	runtime.GC()
	r, err := workloadNamed(o.workload).run(e, fx, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	var w io.Writer
	if traces != nil {
		w = traces
	}
	return finish(r, fx, o, setupS, e.speed.factor(r.start, r.start.Add(r.window)), probed, w), nil
}

// selfcheck runs every workload twice (two sets) and compares each
// end-to-end metric's two values against the metric's own bound, and runs
// each workload once traced for the per-layer record. It fails if any pair
// disagrees beyond its bound, any operation failed, or a traced run
// exceeded a validity limit.
func (e *env) selfcheck(o runOpts, out string) error {
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Set1     float64 `json:"set1"`
		Set2     float64 `json:"set2"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var rows []row
	var sets [3][]*report // two untraced sets, then the traced runs
	ok := true
	// Workload by workload, so the two runs a row compares are half a minute
	// apart: the sandbox's speed drifts by a quarter over tens of minutes.
	for _, w := range workloads {
		for set := range sets {
			ro := runOpts{workload: w.name, seed: o.seed, seconds: o.seconds, trace: set == 2}
			rep, err := e.runOne(fleetCfg, ro)
			if err != nil {
				return err
			}
			rep.table(os.Stdout)
			sets[set] = append(sets[set], rep)
			if rep.Failed != 0 || len(rep.Void) != 0 {
				ok = false
			}
		}
	}
	fmt.Printf("\n%-12s %-18s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	for i, w := range workloads {
		name := w.name
		a, b := sets[0][i], sets[1][i]
		for _, m := range endToEnd {
			va, vb := a.E2E[m.name], b.E2E[m.name]
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			within := diff <= m.bound && diff >= -m.bound
			if !within {
				ok = false
			}
			rows = append(rows, row{name, m.name, m.unit, va, vb, diff, m.bound, within})
			flag := ""
			if !within {
				flag = "  OUTSIDE"
			}
			fmt.Printf("%-12s %-18s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", name, m.name, va, vb, 100*diff, 100*m.bound, flag)
		}
	}
	if out != "" {
		doc := struct {
			Host    map[string]string `json:"host"`
			Seed    int64             `json:"seed"`
			Seconds float64           `json:"seconds"`
			OK      bool              `json:"ok"`
			Rows    []row             `json:"comparison"`
			Set1    []*report         `json:"set1"`
			Set2    []*report         `json:"set2"`
			Traced  []*report         `json:"traced"`
		}{hostInfo(), o.seed, o.seconds.Seconds(), ok, rows, sets[0], sets[1], sets[2]}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("selfcheck: the two sets disagree beyond a bound, an operation failed, or a traced run is void")
	}
	return nil
}

// hostInfo records what a committed result was measured on.
func hostInfo() map[string]string {
	h := map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	if b, err := exec.Command("uname", "-sr").Output(); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	return h
}

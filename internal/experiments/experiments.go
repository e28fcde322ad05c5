// Package experiments regenerates the paper's experimental narrative: one
// runnable experiment per table/figure/claim, each printing a table in the
// style of the original evaluation (E1..E9, one function each below).
// benchmark/README.md records measured results of the serving benchmark.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/etl"
	"repro/internal/mseed"
	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

// Config scales the experiments.
type Config struct {
	// WorkDir is where repositories are generated; a temp dir when empty.
	WorkDir string
	// Days sweeps repository sizes for E1/E2/E3 (files = stations*channels*days).
	Days []int
	// SamplesPerDay per series; default 20000 (about 8 minutes at 40 Hz or
	// a full day at ~0.23 Hz — volume is what matters, not wall time).
	SamplesPerDay int
	Seed          int64
}

func (c *Config) fill() error {
	if c.WorkDir == "" {
		dir, err := os.MkdirTemp("", "lazyetl-exp-*")
		if err != nil {
			return err
		}
		c.WorkDir = dir
	}
	if len(c.Days) == 0 {
		c.Days = []int{1, 2, 4}
	}
	if c.SamplesPerDay == 0 {
		c.SamplesPerDay = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1234
	}
	return nil
}

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// All returns the experiments in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Time to first answer: eager vs lazy (demo point 3)", Run: E1},
		{ID: "e2", Title: "Initial loading cost vs repository size (§1, §3)", Run: E2},
		{ID: "e3", Title: "Storage footprint: the up-to-10x blowup claim (§4)", Run: E3},
		{ID: "e4", Title: "Cache warm-up, budgets and granularity (§3.3)", Run: E4},
		{ID: "e5", Title: "Lazy query time vs selectivity; worst case (§3.1)", Run: E5},
		{ID: "e6", Title: "Repository updates: lazy refresh vs eager reload (§3.3)", Run: E6},
		{ID: "e7", Title: "Figure 1 queries verbatim, all modes agree", Run: E7},
		{ID: "e8", Title: "STA/LTA seismic event hunting (§4)", Run: E8},
		{ID: "e9", Title: "External-table baseline: no metadata pruning (§2)", Run: E9},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// genRepo generates a repository of the given number of days under a
// subdirectory of cfg.WorkDir and returns its path.
func genRepo(cfg Config, days int, events int, sub string) (string, error) {
	dir := fmt.Sprintf("%s/%s-d%d", cfg.WorkDir, sub, days)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil // reuse across experiments in one invocation
	}
	_, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		Days:          days,
		SamplesPerDay: cfg.SamplesPerDay,
		EventsPerDay:  events,
		Seed:          cfg.Seed,
		Encoding:      mseed.EncodingSteim2,
	})
	return dir, err
}

// fullDayRepo generates a 1 Hz full-day repository that covers the exact
// time window of the paper's Q1.
func fullDayRepo(cfg Config, sub string) (string, error) {
	dir := fmt.Sprintf("%s/%s-fullday", cfg.WorkDir, sub)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	_, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		SampleRate:    1,
		SamplesPerDay: 24 * 3600,
		EventsPerDay:  2,
		Seed:          cfg.Seed,
	})
	return dir, err
}

// table is a tiny fixed-width table writer for paper-style output.
type table struct {
	w       io.Writer
	headers []string
	rows    [][]string
}

func newTable(w io.Writer, headers ...string) *table {
	return &table{w: w, headers: headers}
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(t.w, "  ")
			}
			fmt.Fprintf(t.w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(t.w)
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		sep[i] = dashes(w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func mb(b int64) string {
	return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
}

func openTimed(dir string, mode warehouse.Mode, eopts etl.Options) (*warehouse.Warehouse, time.Duration, error) {
	start := time.Now()
	w, err := warehouse.Open(dir, warehouse.Options{Mode: mode, ETL: eopts})
	return w, time.Since(start), err
}

func queryTimed(w *warehouse.Warehouse, q string) (*warehouse.Result, time.Duration, error) {
	start := time.Now()
	res, err := w.Query(q)
	return res, time.Since(start), err
}

// queryUncachedTimed is queryTimed bypassing the result cache, for the rows
// that measure the recycler: a repeated Query is answered from the result
// cache before the recycler is consulted.
func queryUncachedTimed(w *warehouse.Warehouse, q string) (*warehouse.Result, time.Duration, error) {
	start := time.Now()
	res, err := w.QueryUncached(context.Background(), q)
	return res, time.Since(start), err
}

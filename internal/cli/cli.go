// Package cli is the command surface cmd/lazyetl and cmd/lazyetld share:
// the flags that choose a repository and open a warehouse over it, their
// help texts, the mode names and the demo repository -gen writes.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/etl"
	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

// flags holds the shared flags once they are parsed.
type flags struct {
	repo      string
	mode      string
	gen       bool
	cache     int64
	workers   int
	memBudget int64
	slowQuery time.Duration
}

// define defines the shared flags on fs.
func define(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.repo, "repo", "", "mSEED repository directory (required)")
	fs.StringVar(&f.mode, "mode", "lazy", "warehouse mode: lazy, eager or external")
	fs.BoolVar(&f.gen, "gen", false, "generate a demo repository into -repo if the directory is missing")
	fs.Int64Var(&f.cache, "cache", 0, "recycler cache budget in bytes (0 = default 256MiB)")
	fs.IntVar(&f.workers, "workers", 0, "workers per query for pipeline stages, hash-join builds and extraction read-ahead (0 = GOMAXPROCS, 1 = serial engine)")
	fs.Int64Var(&f.memBudget, "mem-budget", 0, "execution-memory budget in bytes, shared by all queries (0 = unlimited); join builds spill to disk under pressure, cache admissions are declined")
	fs.DurationVar(&f.slowQuery, "slow-query", 0, "log queries at or over this wall time at warn severity with their span tree (0 = off), e.g. 250ms")
	return f
}

// options checks -repo and -mode and returns the warehouse options the
// flags select.
func (f *flags) options() (warehouse.Options, error) {
	if f.repo == "" {
		return warehouse.Options{}, errors.New("-repo is required (use -gen to create a demo repository)")
	}
	modes := map[string]warehouse.Mode{"lazy": warehouse.Lazy, "eager": warehouse.Eager, "external": warehouse.External}
	mode, ok := modes[f.mode]
	if !ok {
		return warehouse.Options{}, fmt.Errorf("unknown mode %q (want lazy, eager or external)", f.mode)
	}
	return warehouse.Options{Mode: mode, Workers: f.workers, MemoryBudget: f.memBudget,
		SlowQueryThreshold: f.slowQuery, ETL: etl.Options{CacheBudget: f.cache}}, nil
}

// Parse defines the shared flags on the command line, parses it together
// with any flags the caller defined, runs -gen and returns the repository
// directory and the warehouse options. A usage error exits 2, a failed
// generation 1; both name prog.
func Parse(prog string) (string, warehouse.Options) {
	f := define(flag.CommandLine)
	flag.Parse()
	opts, err := f.options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}
	if _, err := os.Stat(f.repo); f.gen && os.IsNotExist(err) {
		fmt.Printf("generating demo repository under %s ...\n", f.repo)
		if _, err := seisgen.Generate(seisgen.RepoConfig{
			Dir: f.repo, SampleRate: 1, SamplesPerDay: 24 * 3600, EventsPerDay: 2, Seed: 42,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(1)
		}
	}
	return f.repo, opts
}

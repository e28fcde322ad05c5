// Eagerlazy: the demo's point (3) — side-by-side comparison of eager and
// lazy ETL on the same repository and query, plus a look at the plan
// rewriting (points 4-6) that makes the lazy path work.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	lazyetl "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "lazyetl-eagerlazy-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	if _, err := lazyetl.GenerateRepository(lazyetl.RepoConfig{
		Dir:           dir,
		Days:          2,
		SamplesPerDay: 30000,
		Seed:          99,
	}); err != nil {
		log.Fatal(err)
	}

	const q = `SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.network = 'NL' AND F.channel = 'BHZ'
GROUP BY F.station`

	// Traditional ETL: extract-transform-load everything, then query.
	t0 := time.Now()
	eager, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Eager})
	if err != nil {
		log.Fatal(err)
	}
	eagerLoad := time.Since(t0)
	eres, err := eager.Query(q)
	if err != nil {
		log.Fatal(err)
	}

	// Lazy ETL: metadata-only load; extraction happens inside the query.
	t0 = time.Now()
	lazy, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		log.Fatal(err)
	}
	lazyLoad := time.Since(t0)
	lres, err := lazy.Query(q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("time to first answer:")
	fmt.Printf("  eager: load %-10v + query %-10v = %v\n",
		eagerLoad.Round(time.Microsecond), eres.Elapsed.Round(time.Microsecond),
		(eagerLoad + eres.Elapsed).Round(time.Microsecond))
	fmt.Printf("  lazy:  load %-10v + query %-10v = %v\n",
		lazyLoad.Round(time.Microsecond), lres.Elapsed.Round(time.Microsecond),
		(lazyLoad + lres.Elapsed).Round(time.Microsecond))
	speedup := float64(eagerLoad+eres.Elapsed) / float64(lazyLoad+lres.Elapsed)
	fmt.Printf("  lazy answers %.1fx sooner\n\n", speedup)

	fmt.Println("identical answers:")
	fmt.Print(lres.Batch)

	fmt.Println("\nlazy plan before the compile-time reorganization:")
	fmt.Print(lres.Trace.Naive())
	fmt.Println("\nlazy plan after metadata predicates were pushed first:")
	fmt.Print(lres.Trace.Optimized())

	fmt.Printf("\noperators injected by the run-time rewrite (%d total, first 5):\n",
		len(lres.Trace.RuntimeOps))
	for i, op := range lres.Trace.RuntimeOps {
		if i == 5 {
			break
		}
		fmt.Println(" ", op)
	}
	fmt.Printf("\nfiles touched by the lazy query: %d of %d\n",
		len(lres.Trace.TouchedFiles), lazy.InitStats().Files)

	// A second run is answered from the recycler cache — no file access.
	r2, err := lazy.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat query: %v, files touched: %d (served from cache)\n",
		r2.Elapsed.Round(time.Microsecond), len(r2.Trace.TouchedFiles))
}

// Quickstart: generate a small synthetic mSEED repository, open a lazy
// warehouse over it (metadata-only initial load), and run the paper's
// Figure 1 Q2 — per-station amplitude extremes for the Dutch network.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	lazyetl "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "lazyetl-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A day of data for 5 stations x 3 channels (15 files).
	if _, err := lazyetl.GenerateRepository(lazyetl.RepoConfig{
		Dir:           dir,
		SamplesPerDay: 20000,
		EventsPerDay:  1,
		Seed:          42,
	}); err != nil {
		log.Fatal(err)
	}

	// Lazy mode: the initial load parses only file and record headers.
	start := time.Now()
	w, err := lazyetl.Open(dir, lazyetl.Options{Mode: lazyetl.Lazy})
	if err != nil {
		log.Fatal(err)
	}
	init := w.InitStats()
	fmt.Printf("warehouse ready in %v: %d files, %d records, %d samples indexed\n",
		time.Since(start).Round(time.Microsecond), init.Files, init.Records, init.Samples)
	fmt.Printf("bytes read: %d of %d in the repository (metadata only)\n\n",
		init.BytesRead, init.RepoBytes)

	res, err := w.Query(lazyetl.Figure1Q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 1 Q2:", lazyetl.Figure1Q2)
	fmt.Println()
	fmt.Print(res.Batch)
	fmt.Printf("\nanswered in %v touching %d of %d files: %v\n",
		res.Elapsed.Round(time.Microsecond), len(res.Trace.TouchedFiles), init.Files,
		res.Trace.TouchedFiles)
}

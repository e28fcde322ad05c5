// Command experiments regenerates the paper's tables and figures (package
// internal/experiments indexes them as E1..E9).
//
// Usage:
//
//	experiments [-exp e1|e2|...|e9|all] [-days 1,2,4] [-samples 20000] [-work DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e9) or 'all'")
	days := flag.String("days", "1,2,4", "comma-separated repository sizes in days (files = 15 x days)")
	samples := flag.Int("samples", 20000, "samples per series-day")
	work := flag.String("work", "", "working directory for generated repositories (default: temp)")
	seed := flag.Int64("seed", 1234, "generator seed")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var dayList []int
	for _, part := range strings.Split(*days, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: bad -days value %q\n", part)
			os.Exit(2)
		}
		dayList = append(dayList, n)
	}
	cfg := experiments.Config{
		WorkDir:       *work,
		Days:          dayList,
		SamplesPerDay: *samples,
		Seed:          *seed,
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.ID), e.Title)
		if err := e.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}

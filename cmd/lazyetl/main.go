// Command lazyetl is the interactive demonstration front-end — the
// terminal equivalent of the paper's GUI (Figure 2). Every numbered
// inspection point of the demo maps to a command:
//
//	(1) initial loading of only metadata   -> shown at startup and via \stats
//	(2) browsing metadata                  -> \tables, \schema, plain SQL on mseed.files / mseed.records
//	(3) comparing against eager ETL        -> \compare <sql>
//	(4) observing query plans              -> \plan <sql> and the trace after each query
//	(5) observing files lazily extracted   -> \touched
//	(6) plans generated for lazy transform -> \plan (optimized plan shows LazyExtract + transforms)
//	(7) cache contents and updates         -> \cache
//	(8) the operation log                  -> \log [level] [n]
//
// Usage:
//
//	lazyetl -repo DIR [-mode lazy|eager|external] [-gen] [-cache BYTES]
//	        [-workers N] [-mem-budget BYTES] [-slow-query DURATION]
//
// Ctrl-C while a statement runs cancels that statement, not the session.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/warehouse"
)

func main() {
	repoDir, opts := cli.Parse("lazyetl")
	start := time.Now()
	w, err := warehouse.Open(repoDir, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lazyetl:", err)
		os.Exit(1)
	}
	ist := w.InitStats()
	fmt.Printf("lazy ETL demo — %s mode\n", opts.Mode)
	fmt.Printf("initial load: %d files, %d records, %d samples in %v (%d bytes read of %d in repo)\n",
		ist.Files, ist.Records, ist.Samples, time.Since(start).Round(time.Microsecond),
		ist.BytesRead, ist.RepoBytes)
	if opts.Mode != warehouse.Eager {
		fmt.Println("the warehouse is ready: only metadata was loaded; waveform data stays in the files")
	}
	fmt.Println(`type SQL (end with ;), or \help for demo commands`)

	s := &session{w: w, repoDir: repoDir, opts: opts, prepared: make(map[string]*warehouse.Prepared)}
	s.repl()
}

// session is one REPL's state: the warehouse and the options it was opened
// with (\compare opens its eager warehouse with them), the last query's
// trace, and the statements \prepare named.
type session struct {
	w         *warehouse.Warehouse
	repoDir   string
	opts      warehouse.Options
	lastTrace *warehouse.Trace
	prepared  map[string]*warehouse.Prepared
}

func (s *session) repl() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder

	prompt := func() {
		if pending.Len() > 0 {
			fmt.Print("   ...> ")
		} else {
			fmt.Print("lazyetl> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		// Ctrl-C cancels the statement this line runs; between statements
		// it keeps its default and ends the process.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		switch {
		case line == "":
		case strings.HasPrefix(line, `\`) && pending.Len() == 0:
			if quit := s.command(ctx, line); quit {
				stop()
				return
			}
		default:
			pending.WriteString(line)
			pending.WriteByte('\n')
			if strings.HasSuffix(line, ";") {
				q := strings.TrimSuffix(strings.TrimSpace(pending.String()), ";")
				pending.Reset()
				s.runQuery(ctx, q)
			}
		}
		stop()
		prompt()
	}
}

func (s *session) runQuery(ctx context.Context, q string) {
	res, err := s.w.QueryContext(ctx, q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Batch)
	fmt.Printf("(%d rows in %v; %d files touched)\n",
		res.Batch.NumRows(), res.Elapsed.Round(time.Microsecond), len(res.Trace.TouchedFiles))
	tr := res.Trace
	s.lastTrace = &tr
}

// printExplain renders the zone-map skipping record of a trace: per
// extraction, runs/records read vs skipped, and the samples a sample window
// cut from the records extracted.
func printExplain(tr *warehouse.Trace) {
	if len(tr.Scans) == 0 {
		fmt.Println("-- no zone-map pruning applied (no statistics yet, or no eligible predicate)")
		return
	}
	for _, s := range tr.Scans {
		fmt.Printf("-- extract: %d runs read, %d skipped; %d records extracted, %d skipped, %d answered from zones; %d cache reads\n",
			s.Runs, s.RunsSkipped, s.Records, s.RecordsSkipped, s.RecordsAnswered, s.CacheReads)
		if s.Window != "" {
			fmt.Printf("   sample window %s: %d samples trimmed at record edges\n", s.Window, s.SamplesTrimmed)
		}
	}
}

func (s *session) command(ctx context.Context, line string) (quit bool) {
	w := s.w
	fields := strings.Fields(line)
	cmd, rest := fields[0], strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
	switch cmd {
	case `\help`, `\h`:
		fmt.Print(`commands:
  <sql>;            run a query (multi-line; terminate with ;)
  \tables           list tables and views with row counts          (demo point 2)
  \schema [name]    show columns of a table or view                (demo point 2)
  \plan <sql>       show naive and reorganized plans               (demo points 4, 6)
  \explain <sql>    run a query and show zone-map skipping
  \prepare <name> <sql>      prepare a statement ('?' parameter markers)
  \execute <name> [params]   run a prepared statement ('ISK', 42, -3.5, TRUE, NULL)
  \trace            plans, injected operators and span tree of last query (demo points 4-6)
  \touched          files the last query extracted from            (demo point 5)
  \cache            recycler contents and statistics               (demo point 7)
  \log [level] [n]  last n log entries (default 20), optionally at or above
                    a severity: \log error, \log warn 50           (demo point 8)
  \stats            warehouse statistics as JSON (GET /stats)      (demo points 1, 3)
  \compare <sql>    run against a fresh eager warehouse and compare (demo point 3)
  \refresh          re-synchronize with the repository
  \quit             exit
`)
	case `\quit`, `\q`:
		return true
	case `\tables`:
		for _, t := range w.Catalog().Tables() {
			fmt.Printf("table %-16s %8d rows\n", t.Name, w.Store().Snapshot().Rows(t.Name))
		}
		for _, v := range w.Catalog().Views() {
			fmt.Printf("view  %-16s %s\n", v.Name, v.SQL)
		}
	case `\schema`:
		name := rest
		if name == "" {
			name = "mseed.dataview"
		}
		if t, ok := w.Catalog().Table(name); ok {
			for _, c := range t.Columns {
				fmt.Printf("  %-16s %s\n", c.Name, c.Type)
			}
			if len(t.PrimaryKey) > 0 {
				fmt.Printf("  primary key (%s)\n", strings.Join(t.PrimaryKey, ", "))
			}
			for _, fk := range t.ForeignKeys {
				fmt.Printf("  foreign key (%s) references %s\n", strings.Join(fk.Columns, ", "), fk.RefTable)
			}
		} else if v, ok := w.Catalog().View(name); ok {
			for _, c := range v.Columns {
				fmt.Printf("  %-16s %s\n", c.Name, c.Type)
			}
		} else {
			fmt.Printf("unknown table or view %q\n", name)
		}
	case `\plan`:
		if rest == "" {
			fmt.Println("usage: \\plan <sql>")
			break
		}
		tr, err := w.Explain(strings.TrimSuffix(rest, ";"))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("-- plan as generated (before compile-time reorganization):")
		fmt.Print(tr.Naive())
		fmt.Println("-- plan after metadata-predicates-first reorganization:")
		fmt.Print(tr.Optimized())
	case `\explain`:
		if rest == "" {
			fmt.Println("usage: \\explain <sql>")
			break
		}
		// Uncached: a result-cache hit would carry no per-scan skip
		// tallies; \explain is about watching a real execution.
		res, err := w.QueryUncached(ctx, strings.TrimSuffix(rest, ";"))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		tr := res.Trace
		s.lastTrace = &tr
		fmt.Println("-- plan executed:")
		fmt.Print(tr.Optimized())
		printExplain(&tr)
		fmt.Printf("(%d rows in %v)\n", res.Batch.NumRows(), res.Elapsed.Round(time.Microsecond))
	case `\prepare`:
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) < 2 || parts[0] == "" {
			fmt.Println("usage: \\prepare <name> <sql>   ('?' marks parameters)")
			break
		}
		name, src := parts[0], strings.TrimSuffix(strings.TrimSpace(parts[1]), ";")
		ps, err := w.Prepare(src)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		s.prepared[name] = ps
		fmt.Printf("prepared %s (%d parameter(s)): %s\n", name, ps.NumParams(), ps.SQL())
	case `\execute`:
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) == 0 || parts[0] == "" {
			fmt.Println("usage: \\execute <name> [param, ...]")
			break
		}
		ps, ok := s.prepared[parts[0]]
		if !ok {
			fmt.Printf("no prepared statement %q (use \\prepare)\n", parts[0])
			break
		}
		var params []column.Value
		if len(parts) == 2 {
			var err error
			if params, err = sql.ParseParams(parts[1]); err != nil {
				fmt.Println("error:", err)
				break
			}
		}
		res, err := ps.ExecuteContext(ctx, params...)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(res.Batch)
		fmt.Printf("(%d rows in %v)\n", res.Batch.NumRows(), res.Elapsed.Round(time.Microsecond))
		tr := res.Trace
		s.lastTrace = &tr
	case `\trace`:
		tr := s.lastTrace
		if tr == nil {
			fmt.Println("no query has run yet")
			break
		}
		fmt.Println("-- optimized plan:")
		fmt.Print(tr.Optimized())
		fmt.Printf("-- operators injected at run time (%d):\n", len(tr.RuntimeOps))
		for _, op := range tr.RuntimeOps {
			fmt.Println("   ", op)
		}
		if tr.Spans != nil {
			fmt.Println("-- span tree:")
			fmt.Print(obs.Render(tr.Spans))
		}
	case `\touched`:
		if s.lastTrace == nil {
			fmt.Println("no query has run yet")
			break
		}
		for _, f := range s.lastTrace.TouchedFiles {
			fmt.Println(" ", f)
		}
		fmt.Printf("(%d files)\n", len(s.lastTrace.TouchedFiles))
	case `\cache`:
		contents := w.Engine().Cache().Contents()
		for i, e := range contents {
			if i >= 20 {
				fmt.Printf("  ... and %d more entries\n", len(contents)-20)
				break
			}
			fmt.Printf("  %-40s seq=%-4d %6d samples  %8d bytes  admitted %s\n",
				e.Key.URI, e.Key.SeqNo, e.Samples, e.Bytes, e.AdmittedAt.Format("15:04:05.000"))
		}
		st := w.Engine().Cache().Stats()
		fmt.Printf("%d entries, %d bytes; hits=%d misses=%d evictions=%d invalidations=%d\n",
			w.Engine().Cache().Len(), w.Engine().Cache().Used(),
			st.Hits, st.Misses, st.Evictions, st.Invalidations)
	case `\log`:
		n := 20
		min := warehouse.SeverityInfo
		for _, word := range strings.Fields(rest) {
			switch word {
			case "info":
				min = warehouse.SeverityInfo
			case "warn":
				min = warehouse.SeverityWarn
			case "error":
				min = warehouse.SeverityError
			default:
				v, err := strconv.Atoi(word)
				if err != nil || v <= 0 {
					fmt.Println(`usage: \log [info|warn|error] [n]`)
					return false
				}
				n = v
			}
		}
		log := w.Log()
		if min > warehouse.SeverityInfo {
			filtered := log[:0]
			for _, e := range log {
				if e.Level >= min {
					filtered = append(filtered, e)
				}
			}
			log = filtered
		}
		if len(log) > n {
			log = log[len(log)-n:]
		}
		for _, e := range log {
			fmt.Printf("  %6d %s %-5s %-14s %s\n",
				e.Seq, e.At.Format("15:04:05.000"), e.Level, e.Op, e.Detail)
		}
	case `\stats`:
		// The document GET /stats serves under "warehouse".
		b, err := json.MarshalIndent(w.Stats(), "", "  ")
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(string(b))
	case `\compare`:
		if rest == "" {
			fmt.Println("usage: \\compare <sql>")
			break
		}
		q := strings.TrimSuffix(rest, ";")
		t0 := time.Now()
		eager := s.opts
		eager.Mode = warehouse.Eager
		ew, err := warehouse.Open(s.repoDir, eager)
		if err != nil {
			fmt.Println("error opening eager warehouse:", err)
			break
		}
		eagerLoad := time.Since(t0)
		eres, err := ew.QueryContext(ctx, q)
		if err != nil {
			fmt.Println("eager error:", err)
			break
		}
		lres, err := w.QueryContext(ctx, q)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("%-9s load=%-12v query=%-12v total=%v\n", "eager:",
			eagerLoad.Round(time.Microsecond), eres.Elapsed.Round(time.Microsecond),
			(eagerLoad + eres.Elapsed).Round(time.Microsecond))
		fmt.Printf("%-9s load=%-12s query=%-12v total=%v (this session's warehouse, cache state as-is)\n",
			w.Mode().String()+":", "0 (done)", lres.Elapsed.Round(time.Microsecond),
			lres.Elapsed.Round(time.Microsecond))
		if eres.Batch.NumRows() == lres.Batch.NumRows() {
			fmt.Println("row counts agree:", eres.Batch.NumRows())
		} else {
			fmt.Printf("ROW COUNTS DIFFER: eager=%d %s=%d\n", eres.Batch.NumRows(), w.Mode(), lres.Batch.NumRows())
		}
	case `\refresh`:
		st, err := w.Refresh()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("refreshed: %d files, %d records in %v\n", st.Files, st.Records, st.Duration)
	default:
		fmt.Printf("unknown command %s (try \\help)\n", cmd)
	}
	return false
}

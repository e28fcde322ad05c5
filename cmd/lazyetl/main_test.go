package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/seisgen"
	"repro/internal/warehouse"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func()) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(rd)
		printed <- string(b)
	}()
	f()
	os.Stdout = stdout
	wr.Close()
	return <-printed
}

// TestCommands drives the REPL's dispatch through every command \help
// lists, plus a SQL statement, an unknown command and a bad \log argument.
func TestCommands(t *testing.T) {
	dir := t.TempDir()
	if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, SamplesPerDay: 2000, EventsPerDay: 1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	w, err := warehouse.Open(dir, warehouse.Options{Mode: warehouse.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	s := &session{w: w, repoDir: dir, opts: warehouse.Options{Mode: warehouse.Lazy, Workers: 2},
		prepared: make(map[string]*warehouse.Prepared)}
	runCtx := func(ctx context.Context, line string) (out string, quit bool) {
		out = capture(t, func() {
			if strings.HasPrefix(line, `\`) {
				quit = s.command(ctx, line)
			} else {
				s.runQuery(ctx, line)
			}
		})
		return out, quit
	}
	run := func(line string) (string, bool) { return runCtx(context.Background(), line) }

	const q = `SELECT F.station, COUNT(*) FROM mseed.dataview WHERE F.network = 'NL' GROUP BY F.station`
	help, _ := run(`\help`)
	covered := map[string]bool{}
	var stats string
	for _, step := range []struct{ line, want string }{
		{q, "files touched"},
		{`\tables`, "table mseed.files"},
		{`\schema`, "D.sample_value"},
		{`\schema mseed.nosuch`, "unknown table or view"},
		{`\plan ` + q, "LazyExtract"},
		{`\explain ` + q, "-- plan executed:"},
		{`\explain SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_time BETWEEN '2010-01-12T00:00:01.0125' AND '2010-01-12T00:00:30'`,
			"sample window [2010-01-12T00:00:01.0125, 2010-01-12T00:00:30]: "},
		{`\prepare p SELECT COUNT(*) FROM mseed.files WHERE station = ?`, "prepared p (1 parameter(s))"},
		{`\execute p 'ISK'`, "rows in"},
		{`\trace`, "-- operators injected at run time"},
		{`\touched`, "files)"},
		{`\cache`, "entries,"},
		{`\log`, "answer"},
		{`\log warn 5`, ""},
		{`\log bogus`, `usage: \log`},
		{`\stats`, `"Init"`},
		{`\compare ` + q, "row counts agree"},
		{`\refresh`, "refreshed:"},
		{`\nosuch`, "unknown command"},
		{`\quit`, ""},
	} {
		out, quit := run(step.line)
		if !strings.Contains(out, step.want) {
			t.Errorf("%s printed %q, want it to contain %q", step.line, out, step.want)
		}
		if quit != (step.line == `\quit`) {
			t.Errorf("%s: quit = %v", step.line, quit)
		}
		covered[strings.Fields(step.line)[0]] = true
		if step.line == `\stats` {
			stats = out
		}
	}
	for _, line := range strings.Split(help, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], `\`) && !covered[f[0]] {
			t.Errorf(`\help lists %s, which this test never runs`, f[0])
		}
	}

	// \stats prints the document GET /stats serves under "warehouse".
	var st warehouse.Stats
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatalf("\\stats output is not a warehouse.Stats document: %v\n%s", err, stats)
	}
	if st.Queries < 1 || st.Init.Files <= 0 {
		t.Errorf("\\stats: Queries = %d, Init.Files = %d; want a query and the initial load", st.Queries, st.Init.Files)
	}

	// Ctrl-C cancels the running statement, not the session: every line
	// that runs one reports the cancellation, the warehouse holds no slot
	// and no query memory afterwards, and the next statement answers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const cold = `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND D.sample_value > 17`
	for _, line := range []string{cold, `\explain ` + cold, `\execute p 'HGN'`, `\compare ` + cold} {
		if out, _ := runCtx(ctx, line); !strings.Contains(out, "error: context canceled") {
			t.Errorf("%s under a cancelled context printed %q, want \"error: context canceled\"", line, out)
		}
	}
	if st := w.Stats(); st.InFlight != 0 || st.Mem.Used != st.CacheBytes+st.QueryCache.ResultBytes {
		t.Errorf("not idle after cancelled statements: %d slots held, ledger %d bytes for recycler %d + results %d",
			st.InFlight, st.Mem.Used, st.CacheBytes, st.QueryCache.ResultBytes)
	}
	if out, _ := run(cold); !strings.Contains(out, "files touched") {
		t.Errorf("query after the cancelled ones printed %q", out)
	}
}

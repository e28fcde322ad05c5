package warehouse

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seisgen"
)

// park makes the first query that reaches execution wait in the run hook:
// entered is closed when it arrives, and it executes once release is
// closed. Every later query runs unhindered.
func park(w *Warehouse) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var parked atomic.Bool
	w.run = func(n plan.Node, env *plan.Env) (*column.Batch, error) {
		if parked.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return plan.Execute(n, env)
	}
	return entered, release
}

type answer struct {
	res *Result
	err error
}

// addStation writes one day of a new NL station's BHZ series into dir, so
// q2 grows a group.
func addStation(t *testing.T, dir string) {
	t.Helper()
	if _, err := seisgen.Generate(seisgen.RepoConfig{
		Dir:           dir,
		Stations:      []seisgen.Station{{Network: "NL", Code: "NEW"}},
		Channels:      []string{"BHZ"},
		SamplesPerDay: 500,
		Seed:          7,
	}); err != nil {
		t.Fatal(err)
	}
}

// touchFirst moves the first listed file's mtime an hour ahead, so the next
// Refresh finds a change and publishes a new snapshot.
func touchFirst(t *testing.T, dir string) {
	t.Helper()
	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Touch(rp.Files[0].AbsPath, rp.Files[0].ModTime.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshDoesNotWaitForQueries: a Refresh that adds a file returns
// while a query admitted before it is still executing; that query answers
// from the snapshot it loaded at admission, bit-identical to the answer
// before the refresh, and the next query sees the new file.
func TestRefreshDoesNotWaitForQueries(t *testing.T) {
	dir := genRepo(t, 1500)
	w := openWH(t, dir, Lazy)
	want, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := park(w)
	parked := make(chan answer, 1)
	go func() {
		res, err := w.QueryUncached(context.Background(), q2)
		parked <- answer{res, err}
	}()
	<-entered

	addStation(t, dir)
	refreshed := make(chan error, 1)
	go func() {
		_, err := w.Refresh()
		refreshed <- err
	}()
	select {
	case err := <-refreshed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("Refresh waited for the in-flight query")
	}
	if st := w.Stats(); st.InFlight != 1 {
		t.Fatalf("%d queries in flight after the refresh, want the parked one", st.InFlight)
	}

	close(release)
	a := <-parked
	if a.err != nil {
		t.Fatal(a.err)
	}
	if got, want := renderExact(a.res.Batch), renderExact(want.Batch); got != want {
		t.Errorf("a query admitted before the refresh saw its effect\nwant:\n%s\ngot:\n%s", want, got)
	}
	res, err := w.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if got, was := res.Batch.NumRows(), want.Batch.NumRows(); got != was+1 {
		t.Errorf("after the refresh q2 has %d groups, want %d (the new station's)", got, was+1)
	}
	requireIdle(t, "after the refresh", w, t.TempDir())
}

// TestSupersededAnswerIsNotAdmitted: a query whose snapshot a Refresh
// superseded while it executed does not admit its answer to the result
// cache, where no later query could carry its version.
func TestSupersededAnswerIsNotAdmitted(t *testing.T) {
	dir := genRepo(t, 1500)
	w := openWH(t, dir, Lazy)
	entered, release := park(w)
	parked := make(chan answer, 1)
	go func() {
		res, err := w.Query(q2)
		parked <- answer{res, err}
	}()
	<-entered
	touchFirst(t, dir)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	before := w.Stats().QueryCache
	close(release)
	if a := <-parked; a.err != nil {
		t.Fatal(a.err)
	}
	if qc := w.Stats().QueryCache; qc.ResultEntries != before.ResultEntries || qc.ResultBytes != before.ResultBytes {
		t.Errorf("result cache grew from %d entries (%d B) to %d (%d B) by a superseded answer",
			before.ResultEntries, before.ResultBytes, qc.ResultEntries, qc.ResultBytes)
	}
	requireIdle(t, "after the superseded query", w, t.TempDir())
}

// TestAdmissionIsCancellable: with the one admission slot held, a query
// whose context is cancelled, or passes its deadline, while it waits fails
// with ctx.Err() as one failed query and holds no slot.
func TestAdmissionIsCancellable(t *testing.T) {
	w, err := Open(genRepo(t, 1500), Options{Mode: Lazy, MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Prepare(`SELECT COUNT(*) FROM mseed.files WHERE station = ?`)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := park(w)
	holder := make(chan answer, 1)
	go func() {
		res, err := w.QueryUncached(context.Background(), q2)
		holder <- answer{res, err}
	}()
	<-entered

	errs, queries := w.Metrics().Errors.Load(), w.Stats().Queries
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := w.QueryContext(ctx, `SELECT COUNT(*) FROM mseed.files`); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled while waiting: %v, want %v", err, context.Canceled)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.ExecuteContext(ctx, column.NewString("ISK")); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline while waiting: %v, want %v", err, context.DeadlineExceeded)
	}
	if got := w.Metrics().Errors.Load(); got != errs+2 {
		t.Errorf("error counter moved by %d, want 2", got-errs)
	}
	if f := w.Stats().Failures; f.Cancelled != 1 || f.DeadlineExceeded != 1 {
		t.Errorf("failure counters %+v, want one cancelled and one past its deadline", f)
	}
	if st := w.Stats(); st.Queries != queries || st.InFlight != 1 {
		t.Errorf("%d queries admitted and %d slots held while waiting; want %d and the holder's", st.Queries, st.InFlight, queries)
	}

	close(release)
	if a := <-holder; a.err != nil {
		t.Fatal(a.err)
	}
	requireIdle(t, "after cancelled admissions", w, t.TempDir())
	if _, err := p.ExecuteContext(context.Background(), column.NewString("ISK")); err != nil {
		t.Fatalf("the slot was not released: %v", err)
	}
}

// cancelAfterFirst is an ExtractSource whose streams call cancel once they
// have handed out their first morsel.
// TestRecoveredPanicFailsTheQuery: a panic inside execution — here in the
// extraction stream's Next, on whichever goroutine pulls it — fails that
// query with the recovered *exec.PanicError, counts it, logs the query's
// span tree in its error entry, and leaves the warehouse idle and serving.
func TestRecoveredPanicFailsTheQuery(t *testing.T) {
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	for _, workers := range []int{1, 4} {
		w, err := Open(genRepo(t, 2000), Options{Mode: Lazy, Workers: workers, morselRows: 64, MemoryBudget: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		w.run = func(n plan.Node, env *plan.Env) (*column.Batch, error) {
			env.Source = panicOnNext{env.Source}
			return plan.Execute(n, env)
		}
		var pe *exec.PanicError
		if _, err := w.Query(q2); !errors.As(err, &pe) || pe.Value != "injected" {
			t.Fatalf("workers=%d: %v, want the recovered panic", workers, err)
		}
		if f := w.Stats().Failures; f.Errors != 1 || f.PanicsRecovered != 1 || f.Cancelled+f.DeadlineExceeded != 0 {
			t.Errorf("workers=%d: failure counters %+v, want one error, a recovered panic", workers, f)
		}
		var logged bool
		for _, e := range w.Log() {
			logged = logged || e.Op == "error" && e.Level == SeverityError && strings.Contains(e.Detail, "span tree:\nquery") && strings.Contains(e.Detail, "metadata")
		}
		if !logged {
			t.Errorf("workers=%d: no error-severity span tree in the log", workers)
		}
		requireIdle(t, fmt.Sprintf("workers=%d, after the panic", workers), w, root)
		w.run = plan.Execute
		if _, err := w.Query(q2); err != nil {
			t.Fatalf("workers=%d: the warehouse must keep serving after a recovered panic: %v", workers, err)
		}
	}
}

type panicOnNext struct{ plan.ExtractSource }

func (s panicOnNext) ExtractStream(ctx context.Context, meta *column.Batch, cols []string, prune *plan.PruneRange, window *plan.SampleWindow, answer plan.ZoneAnswer, obs plan.Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error) {
	src, err := s.ExtractSource.ExtractStream(ctx, meta, cols, prune, window, answer, obs, morselRows, width, led)
	if err != nil {
		return nil, err
	}
	return panicking{src}, nil
}

type panicking struct{ exec.BatchSource }

func (panicking) Next() (exec.Morsel, bool, error) { panic("injected") }

type cancelAfterFirst struct {
	plan.ExtractSource
	cancel context.CancelFunc
}

func (s cancelAfterFirst) ExtractStream(ctx context.Context, meta *column.Batch, cols []string, prune *plan.PruneRange, window *plan.SampleWindow, answer plan.ZoneAnswer, obs plan.Observer, morselRows, width int, led *mem.Ledger) (exec.BatchSource, error) {
	src, err := s.ExtractSource.ExtractStream(ctx, meta, cols, prune, window, answer, obs, morselRows, width, led)
	if err != nil {
		return nil, err
	}
	return cancelOnNext{src, s.cancel}, nil
}

type cancelOnNext struct {
	exec.BatchSource
	cancel context.CancelFunc
}

func (s cancelOnNext) Next() (exec.Morsel, bool, error) {
	m, ok, err := s.BatchSource.Next()
	s.cancel()
	return m, ok, err
}

// cancelOnEvent is an Observer that calls cancel when execution reports
// an event of kind op.
type cancelOnEvent struct {
	plan.Observer
	op     string
	cancel context.CancelFunc
}

func (o cancelOnEvent) Event(op, detail string) {
	o.Observer.Event(op, detail)
	if op == o.op {
		o.cancel()
	}
}

// cancelOnRun is an Observer that calls cancel when extraction reports a
// run it read, which it does inside that run.
type cancelOnRun struct {
	plan.Observer
	cancel context.CancelFunc
}

func (o cancelOnRun) ExtractRun(r plan.ExtractRun) {
	o.Observer.ExtractRun(r)
	if r.Run >= 0 {
		o.cancel()
	}
}

// buildTaskHook is exec's hook at the start of every task of the
// partitioned join build's passes; tests replace it to act inside a pass.
//
//go:linkname buildTaskHook repro/internal/exec.buildTaskHook
var buildTaskHook func(pass, task int)

// spillJoinQ is an explicit eager join whose hash build is over mseed.data,
// which a 2 MiB budget cannot hold: some of its build partitions spill.
const spillJoinQ = `SELECT F.station, COUNT(*), MIN(D.sample_time), MAX(D.sample_time)
FROM mseed.files F
JOIN mseed.records R ON F.file_id = R.file_id
JOIN mseed.data D ON F.file_id = D.file_id AND R.seqno = D.seqno
GROUP BY F.station ORDER BY F.station`

// TestQueryCancelledMidPipeline: a query whose context ends mid-execution
// fails with context.Canceled, on the serial loop and the parallel driver —
// ended inside its first extraction run, after its extraction stream handed
// out the first morsel, after its sort, a post-pipeline breaker, has
// finished but before the Limit above it, inside a comparator sort of
// 1.05 M rows, from which it must return within 500 ms of the cancel (the
// sort itself takes about a second), or in the third pass of an eager hash
// build that spills under a 2 MiB budget. It leaves no slot, ledger bytes
// or spill directory behind and no cached answer, and the next run of the
// statement answers bit for bit like the noQueryCache oracle.
func TestQueryCancelledMidPipeline(t *testing.T) {
	small, big := genRepo(t, 2000), ""
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	defer func() { buildTaskHook = func(int, int) {} }()
	var cancelledAt atomic.Int64 // unix ns of the delayed cancel, 0 before it
	cases := []struct {
		name, q string
		big     bool // over a repository of 1.05 M samples
		eager   bool // Eager mode under a 2 MiB budget
		hook    func(env *plan.Env, cancel context.CancelFunc)
	}{
		{"extraction run", q2, false, false, func(env *plan.Env, cancel context.CancelFunc) {
			env.Obs = cancelOnRun{env.Obs, cancel}
		}},
		{"first morsel", q2, false, false, func(env *plan.Env, cancel context.CancelFunc) {
			env.Source = cancelAfterFirst{env.Source, cancel}
		}},
		{"sort event", `SELECT D.sample_value, F.station FROM mseed.dataview ORDER BY D.sample_value, F.station LIMIT 1`, false, false,
			func(env *plan.Env, cancel context.CancelFunc) {
				env.Obs = cancelOnEvent{env.Obs, "sort", cancel}
			}},
		{"inside the sort", `SELECT D.sample_value FROM mseed.dataview ORDER BY D.sample_value LIMIT 1`, true, false,
			func(env *plan.Env, cancel context.CancelFunc) {
				// The extract event is logged once the extraction's pipeline
				// has drained, just before the post-pipeline breakers start;
				// the sort is under way 20 ms later.
				env.Obs = cancelOnEvent{env.Obs, "extract", func() {
					time.AfterFunc(20*time.Millisecond, func() {
						cancelledAt.Store(time.Now().UnixNano())
						cancel()
					})
				}}
			}},
		{"spill partition", spillJoinQ, false, true, func(_ *plan.Env, cancel context.CancelFunc) {
			buildTaskHook = func(pass, _ int) {
				if pass == 3 {
					cancel()
				}
			}
		}},
	}
	for _, tc := range cases {
		dir := small
		if tc.big {
			if big == "" {
				big = genRepo(t, 70000)
			}
			dir = big
		}
		opts := Options{Mode: Lazy, MemoryBudget: 64 << 20}
		if tc.eager {
			opts = Options{Mode: Eager, MemoryBudget: 2 << 20}
		}
		oracle, err := openOracle(dir, Options{Mode: opts.Mode}, noQueryCache)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s, workers=%d", tc.name, workers)
			opts.Workers, opts.morselRows = workers, 64
			w, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			w.run = func(n plan.Node, env *plan.Env) (*column.Batch, error) {
				tc.hook(env, cancel)
				return plan.Execute(n, env)
			}
			cancelledAt.Store(0)
			if _, err := w.QueryContext(ctx, tc.q); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %v, want %v", name, err, context.Canceled)
			}
			if at := cancelledAt.Load(); at != 0 {
				lag := time.Duration(time.Now().UnixNano() - at)
				t.Logf("%s: returned %v after the cancel", name, lag)
				if lag > 500*time.Millisecond {
					t.Errorf("%s: returned %v after the cancel, want within 500ms", name, lag)
				}
			}
			if f := w.Stats().Failures; f.Errors != 1 || f.Cancelled != 1 || f.DeadlineExceeded+f.PanicsRecovered != 0 {
				t.Errorf("%s: failure counters %+v, want one error, cancelled", name, f)
			}
			buildTaskHook = func(int, int) {}
			requireIdle(t, name+", after the cancelled query", w, root)
			w.run = plan.Execute
			got, err := w.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if st := w.Stats().QueryCache; st.ResultHits != 0 {
				t.Errorf("%s: the cancelled query left an answer in the result cache: %+v", name, st)
			}
			if g, e := renderExact(got.Batch), renderExact(want.Batch); g != e {
				t.Errorf("%s: answer after the cancelled query diverged from the oracle\nwant:\n%s\ngot:\n%s", name, e, g)
			}
			if tc.eager && w.Stats().Exec.JoinSpills == 0 {
				t.Errorf("%s: the uncancelled run spilled nothing; the cancel point is vacuous", name)
			}
		}
	}
}

// waitOnRun is an Observer that, inside each extraction run it hears of,
// waits for ctx to end: a deadline on ctx then passes mid-extraction.
type waitOnRun struct {
	plan.Observer
	ctx context.Context
}

func (o waitOnRun) ExtractRun(r plan.ExtractRun) {
	o.Observer.ExtractRun(r)
	if r.Run >= 0 {
		<-o.ctx.Done()
	}
}

// queryHook is the context key of the hook a soak query applies to its
// plan.Env: w.run is the warehouse's, so each query names its own.
type queryHook struct{}

// TestFailuresUnderLoad: on one warehouse at Workers: 4, with the recycler
// off so that every Q2 reads extraction runs, four kinds of query run at
// once — cancelled inside an extraction run, past their deadline inside
// one, panicking in the extraction stream, and plain Q2s, which must each
// answer as the noQueryCache oracle does. Afterwards the warehouse is idle,
// its failure counters are exactly what was issued, and the next Q2 answers
// bit for bit like the oracle.
func TestFailuresUnderLoad(t *testing.T) {
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	dir := genRepo(t, 2000)
	oracle, err := openOracle(dir, Options{Mode: Lazy}, noQueryCache)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	want := renderExact(res.Batch)
	w, err := Open(dir, Options{Mode: Lazy, Workers: 4, morselRows: 64, MemoryBudget: 64 << 20, ETL: etl.Options{DisableCache: true}})
	if err != nil {
		t.Fatal(err)
	}
	w.run = func(n plan.Node, env *plan.Env) (*column.Batch, error) {
		if hook, ok := env.Ctx.Value(queryHook{}).(func(*plan.Env)); ok {
			hook(env)
		}
		return plan.Execute(n, env)
	}
	hooked := func(ctx context.Context, hook func(*plan.Env)) error {
		_, err := w.QueryUncached(context.WithValue(ctx, queryHook{}, hook), q2)
		return err
	}
	kinds := []struct {
		name string
		run  func() error
		ok   func(error) bool
	}{
		{"cancelled in a run", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return hooked(ctx, func(env *plan.Env) { env.Obs = cancelOnRun{env.Obs, cancel} })
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"deadline in a run", func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			return hooked(ctx, func(env *plan.Env) { env.Obs = waitOnRun{env.Obs, ctx} })
		}, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"panic in the stream", func() error {
			return hooked(context.Background(), func(env *plan.Env) { env.Source = panicOnNext{env.Source} })
		}, func(err error) bool {
			var pe *exec.PanicError
			return errors.As(err, &pe) && pe.Value == "injected"
		}},
		{"plain Q2", func() error {
			res, err := w.QueryContext(context.Background(), q2)
			if err == nil && renderExact(res.Batch) != want {
				err = fmt.Errorf("answer diverged from the oracle:\n%s", renderExact(res.Batch))
			}
			return err
		}, func(err error) bool { return err == nil }},
	}
	const each = 8
	var wg sync.WaitGroup
	for _, k := range kinds {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range each / 2 {
					if err := k.run(); !k.ok(err) {
						t.Errorf("%s: %v", k.name, err)
					}
				}
			}()
		}
	}
	wg.Wait()
	if f := w.Stats().Failures; f.Cancelled != each || f.DeadlineExceeded != each || f.PanicsRecovered != each || f.Errors != 3*each {
		t.Errorf("failure counters %+v, want %d of each cause and %d errors", f, each, 3*each)
	}
	requireIdle(t, "after the load", w, root)
	w.run = plan.Execute
	if res, err := w.Query(q2); err != nil || renderExact(res.Batch) != want {
		t.Fatalf("next Q2 after the load: %v, or its answer diverged from the oracle", err)
	}
}

// TestRefreshMatchesOpen: Open is the first Refresh. After one file is
// removed, one touched, one rewritten to another size under its old mtime
// and one added, a Refresh publishes bit for bit the tables a fresh Open of
// the directory loads — mseed.files, mseed.records and, in Eager mode,
// mseed.data — and reports the same load figures, having parsed only the
// headers of the touched, rewritten and added files in Lazy mode. A second
// Refresh with nothing changed publishes nothing: the version stays, it
// reads no byte, and a cached answer is still served.
func TestRefreshMatchesOpen(t *testing.T) {
	for _, mode := range []Mode{Lazy, Eager} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := genRepo(t, 1500)
			w := openWH(t, dir, mode)
			if _, err := w.Query(q2); err != nil {
				t.Fatal(err)
			}
			rp, err := repo.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The removed file sits between carried ones, splitting their run.
			if err := os.Remove(rp.Files[2].AbsPath); err != nil {
				t.Fatal(err)
			}
			touched, rewritten := rp.Files[5], rp.Files[9]
			if err := repo.Touch(touched.AbsPath, time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			// The rewrite drops the file's last record and restores its mtime.
			content, err := os.ReadFile(rewritten.AbsPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rewritten.AbsPath, content[:len(content)-512], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := repo.Touch(rewritten.AbsPath, rewritten.ModTime); err != nil {
				t.Fatal(err)
			}
			addStation(t, dir)
			st, err := w.Refresh()
			if err != nil {
				t.Fatal(err)
			}

			fresh := openWH(t, dir, mode)
			tables := []string{catalog.TableFiles, catalog.TableRecords}
			if mode == Eager {
				tables = append(tables, catalog.TableData)
			}
			for _, name := range tables {
				got, err := w.Store().Snapshot().Table(name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Store().Snapshot().Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if g, e := renderExact(got), renderExact(want); g != e {
					t.Errorf("%s after the refresh differs from a fresh Open's (%d rows, want %d)", name, got.NumRows(), want.NumRows())
				}
			}
			after, err := repo.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantRead := after.TotalSize()
			if mode == Lazy {
				listed := make(map[string]bool)
				for _, f := range rp.Files {
					listed[f.URI] = true
				}
				wantRead = 0
				for _, f := range after.Files {
					if f.URI == touched.URI || f.URI == rewritten.URI || !listed[f.URI] {
						infos, err := mseed.ScanFile(f.AbsPath)
						if err != nil {
							t.Fatal(err)
						}
						wantRead += 64 * int64(len(infos))
					}
				}
			}
			opened := fresh.InitStats().Stats
			if st.Files != opened.Files || st.Records != opened.Records || st.Samples != opened.Samples ||
				st.BytesRead != wantRead || st.RepoBytes != opened.RepoBytes {
				t.Errorf("refresh loaded %+v, want a fresh Open's %+v with %d bytes read", st, opened, wantRead)
			}
			if st.Files != len(rp.Files) {
				t.Errorf("refresh loaded %d files, want %d (one removed, one added)", st.Files, len(rp.Files))
			}

			if _, err := w.Query(q2); err != nil {
				t.Fatal(err)
			}
			version, hits := w.Store().Snapshot().Version(), w.Stats().QueryCache.ResultHits
			again, err := w.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if v := w.Store().Snapshot().Version(); v != version {
				t.Errorf("an unchanged refresh moved the version from %d to %d", version, v)
			}
			if again.BytesRead != 0 || again.Files != st.Files || again.Records != st.Records || again.Samples != st.Samples {
				t.Errorf("unchanged refresh loaded %+v, want %+v with 0 bytes read", again, st)
			}
			if _, err := w.Query(q2); err != nil {
				t.Fatal(err)
			}
			if h := w.Stats().QueryCache.ResultHits; h != hits+1 {
				t.Errorf("result hits went from %d to %d across an unchanged refresh, want one more", hits, h)
			}
		})
	}
}

// TestRefreshUnderReaders: eight readers query while a refresher touches
// files, adds file-days, rewrites one in place and refreshes, the last time
// with nothing changed. Each reader's statement answers the number of files
// and a windowed aggregate of their samples together, and that pair must be
// the answer of exactly one repository state of the sequence — a fresh
// warehouse's over the directory as each refresh finds it — with the states
// each reader sees never going backwards. The series are INT32-encoded, so
// the rewrite, new samples under a new mtime renamed over the file, keeps
// every record's offset and length: a query on the snapshot before it reads
// the new samples as the new state's. The rename waits for the queries in
// flight: one on an older snapshot still, or one that stat'ed the file
// before the rename and reads it after, would pair that snapshot's metadata
// or cached records with the new samples, an answer of no state.
func TestRefreshUnderReaders(t *testing.T) {
	dir := t.TempDir()
	day0 := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	hgn := seisgen.Station{Network: "NL", Code: "HGN"}
	generate := func(into string, day int, channels []string, seed int64) {
		if _, err := seisgen.Generate(seisgen.RepoConfig{
			Dir:           into,
			Stations:      []seisgen.Station{hgn},
			Channels:      channels,
			StartDay:      day0.AddDate(0, 0, day),
			SamplesPerDay: 2000,
			Encoding:      mseed.EncodingInt32,
			Seed:          seed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	addDay := func(day int) { generate(dir, day, []string{"BHZ", "BHN"}, int64(day)) }
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	addDay(0)
	// The window starts inside day 0's series and ends inside day 3's, so
	// it cuts records at both ends once day 3 is there.
	const pairQ = `SELECT COUNT(DISTINCT F.uri), COUNT(*), MIN(D.sample_value), MAX(D.sample_value), SUM(D.sample_value)
	 FROM mseed.dataview
	 WHERE D.sample_time >= '2010-01-12 00:00:10' AND D.sample_time < '2010-01-15 00:00:20'`
	reference := func(root string) string {
		ref, err := Open(root, Options{Mode: Lazy})
		if err != nil {
			t.Fatal(err)
		}
		files, err := ref.Query(`SELECT COUNT(*) FROM mseed.files`)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := ref.Query(pairQ)
		if err != nil {
			t.Fatal(err)
		}
		if n, d := files.Batch.Row(0)[0].I, pair.Batch.Row(0)[0].I; n != d {
			t.Fatalf("setup: %d files, %d of them in the window", n, d)
		}
		return renderExact(pair.Batch)
	}

	w, err := Open(dir, Options{Mode: Lazy, Workers: 2, MaxConcurrentQueries: 8, morselRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{reference(dir)}
	var mu sync.Mutex // guards states
	// record adds the answer over root as the next state, unless it is the
	// last one's.
	record := func(root string) {
		if ref := reference(root); ref != states[len(states)-1] {
			mu.Lock()
			states = append(states, ref)
			mu.Unlock()
		}
	}
	stateOf := func(got string) int {
		mu.Lock()
		defer mu.Unlock()
		for i, s := range states {
			if s == got {
				return i
			}
		}
		return -1
	}

	const readers = 8
	var inFlight sync.RWMutex // readers hold it shared per query; the rewrite's rename, exclusively
	stop := make(chan struct{})
	fails := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := 0
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n == 0 {
						fails <- fmt.Errorf("reader %d never queried", r)
					}
					return
				default:
				}
				query := w.QueryContext
				if r%2 == 1 {
					query = w.QueryUncached
				}
				inFlight.RLock()
				res, err := query(context.Background(), pairQ)
				inFlight.RUnlock()
				if err != nil {
					fails <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				got := renderExact(res.Batch)
				i := stateOf(got)
				if i < 0 {
					fails <- fmt.Errorf("reader %d: answer of no repository state:\n%s", r, got)
					return
				}
				if i < last {
					fails <- fmt.Errorf("reader %d: saw state %d after state %d", r, i, last)
					return
				}
				last = i
			}
		}(r)
	}

	rp, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 8; step++ {
		at := time.Now().Add(time.Duration(step) * time.Second)
		version := w.Store().Snapshot().Version()
		switch step {
		case 7:
			// Readers see a rewrite in place at once, not at the refresh:
			// stage the new file in a hard-linked copy of the directory,
			// record that state, then rename the file over the old one.
			next := t.TempDir()
			generate(next, 0, []string{"BHZ"}, 99)
			rel := seisgen.FilePath(hgn, "BHZ", day0)
			must(repo.Touch(filepath.Join(next, rel), at))
			cur, err := repo.Open(dir)
			must(err)
			for _, f := range cur.Files {
				if f.URI != filepath.ToSlash(rel) {
					link := filepath.Join(next, filepath.FromSlash(f.URI))
					must(os.MkdirAll(filepath.Dir(link), 0o755))
					must(os.Link(f.AbsPath, link))
				}
			}
			record(next)
			inFlight.Lock()
			must(os.Rename(filepath.Join(next, rel), filepath.Join(dir, rel)))
			inFlight.Unlock()
		case 8: // nothing changes: the refresh publishes nothing
		default:
			must(repo.Touch(rp.Files[step%len(rp.Files)].AbsPath, at))
			if step%2 == 0 {
				addDay(step / 2)
			}
		}
		// The refresher is the only writer, so the directory now holds the
		// state the refresh below publishes: short of the rewrite, recorded
		// above, its answer is known before any reader can see it.
		record(dir)
		if _, err := w.Refresh(); err != nil {
			fails <- err
			break
		}
		if moved := w.Store().Snapshot().Version() != version; moved != (step != 8) {
			fails <- fmt.Errorf("step %d: refresh moved the version: %v", step, moved)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}
	if len(states) != 5 {
		t.Errorf("%d distinct repository states, want 5 (day 0, three added days, then the rewrite)", len(states))
	}
	requireIdle(t, "after the readers", w, t.TempDir())
}

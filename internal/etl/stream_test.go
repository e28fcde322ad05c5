package etl

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/sql"
)

// runQueryEnv executes a lazy-mode query with an explicit environment
// configuration, so tests can pin the oracle (NoPipeline) against the
// pipelined streaming path at chosen worker counts and morsel sizes.
func runQueryEnv(e *Engine, store *catalog.Store, q string, workers, morselRows int, noPipeline bool) (*column.Batch, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	plans, err := plan.Build(stmt, store.Catalog(), plan.Lazy)
	if err != nil {
		return nil, err
	}
	return plan.Execute(plans.Root, &plan.Env{
		Store:      store,
		Source:     e,
		Pool:       exec.NewPoolMorsel(workers, morselRows),
		NoPipeline: noPipeline,
	})
}

// TestStreamMatchesExtract requires the streamed universal table (consumed
// through a pipelined raw select) to be byte-identical to the materializing
// Extract path, cold and warm, at several parallelism and morsel settings.
func TestStreamMatchesExtract(t *testing.T) {
	_, _, dir := newEngine(t, 3000, Options{})
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.channel = 'BHZ' AND D.sample_value > 10`

	oracle, oracleStore, _ := newEngineAt(t, dir, Options{Parallelism: 1})
	if _, err := oracle.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	want, err := runQueryEnv(oracle, oracleStore, q, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() == 0 {
		t.Fatal("oracle query returned no rows; test is vacuous")
	}

	for _, p := range []int{1, 4} {
		for _, morsel := range []int{61, 5000} {
			e, store, _ := newEngineAt(t, dir, Options{Parallelism: p})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			cold, err := runQueryEnv(e, store, q, p, morsel, false)
			if err != nil {
				t.Fatalf("parallelism=%d morsel=%d: %v", p, morsel, err)
			}
			warm, err := runQueryEnv(e, store, q, p, morsel, false)
			if err != nil {
				t.Fatalf("parallelism=%d morsel=%d warm: %v", p, morsel, err)
			}
			if cold.String() != want.String() {
				t.Errorf("parallelism=%d morsel=%d: cold stream output differs from Extract", p, morsel)
			}
			if warm.String() != want.String() {
				t.Errorf("parallelism=%d morsel=%d: warm stream output differs from Extract", p, morsel)
			}
			if st := e.ExtractionStats(); st.SamplesServed == 0 {
				t.Errorf("parallelism=%d morsel=%d: no samples counted", p, morsel)
			}
		}
	}
}

// TestStreamDeterministicReadFailure truncates every qualifying file after
// the metadata load, so prefetch ReadAt calls fail mid-query. Whatever run
// fails first in wall-clock time, the surfaced error must be that of the
// earliest failing run in plan order — identical to the materializing
// extractor's, at every parallelism.
func TestStreamDeterministicReadFailure(t *testing.T) {
	_, _, dir := newEngine(t, 2000, Options{})
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	truncate := func(e *Engine) {
		n := 0
		for _, f := range e.Repository().Files {
			if !strings.Contains(f.URI, "BHZ") {
				continue
			}
			st, err := os.Stat(f.AbsPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(f.AbsPath, st.Size()/3); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n < 2 {
			t.Fatalf("truncated %d files, want >= 2", n)
		}
	}

	oracle, oracleStore, _ := newEngineAt(t, dir, Options{Parallelism: 1})
	if _, err := oracle.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const tries = 3
	type eng struct {
		e *Engine
		s *catalog.Store
	}
	var streams []eng
	for _, p := range []int{1, 8} {
		for i := 0; i < tries; i++ {
			e, store, _ := newEngineAt(t, dir, Options{Parallelism: p})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, eng{e, store})
		}
	}
	truncate(oracle)

	_, wantErr := runQueryEnv(oracle, oracleStore, q, 1, 0, true)
	if wantErr == nil {
		t.Fatal("materializing extraction over truncated files did not fail")
	}
	for i, se := range streams {
		_, err := runQueryEnv(se.e, se.s, q, 4, 61, false)
		if err == nil {
			t.Fatalf("stream %d: no error over truncated files", i)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("stream %d: error %q != materializing error %q", i, err, wantErr)
		}
	}
}

// dataviewMeta runs the metadata half of a lazy dataview query: the batch of
// qualifying records (every F.* and R.* column) the run-time rewrite hands
// to extraction.
func dataviewMeta(t testing.TB, store *catalog.Store, q string) *column.Batch {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := plan.Build(stmt, store.Catalog(), plan.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := plan.Execute(plans.Root.(*plan.LazyExtract).Meta, &plan.Env{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// drainStream concatenates a stream's morsels onto proto's zero-row schema,
// failing unless every morsel carries exactly proto's columns.
func drainStream(t *testing.T, src exec.BatchSource, proto *column.Batch) *column.Batch {
	t.Helper()
	defer src.Close()
	out := proto.Gather([]int32{})
	want := strings.Join(proto.Names(), ",")
	for {
		m, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if got := strings.Join(m.B.Names(), ","); got != want || m.Sel != nil {
			t.Fatalf("morsel carries [%s] (sel %v), the proto says [%s]", got, m.Sel != nil, want)
		}
		for c := 0; c < proto.NumCols(); c++ {
			if m.B.ColAt(c).Type() != proto.ColAt(c).Type() {
				t.Fatalf("morsel column %s is %v, the proto says %v", proto.ColAt(c).Name(), m.B.ColAt(c).Type(), proto.ColAt(c).Type())
			}
		}
		if err := out.AppendBatch(m.B); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamCarriesExactlyListedColumns checks the narrowed universal
// table at the extraction boundary: for every column list the stream's
// morsels and plan.ExtractProto carry exactly the listed columns in the
// listed order, and each column equals the same column of the full-width
// Extract batch value for value — over metadata that holds a zero-sample
// record, a record whose length went stale after the load and records the
// zone maps prune, cold (every record decoded) and warm (every record a
// cache hit).
func TestStreamCarriesExactlyListedColumns(t *testing.T) {
	for _, opts := range []Options{{DisableCache: true}, {Parallelism: 4}} {
		e, store, _ := newEngine(t, 3000, opts)
		path, _ := fileFor(t, e, "HGN", "BHZ")
		infos, err := mseed.ScanFile(path)
		if err != nil {
			t.Fatal(err)
		}
		patchRecordSampleCount(t, path, infos[1].Offset, 0) // zero samples, and the metadata says so
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		stale := patchRecordSampleCount(t, path, infos[2].Offset, 0) // zero samples, the metadata says otherwise

		meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview WHERE F.station = 'HGN'`)

		// A first pass collects the zone maps; the prune range is then set
		// at half the largest sample so it drops some records, not all.
		first, err := e.Extract(meta, nil, plan.NopObserver{})
		if err != nil {
			t.Fatal(err)
		}
		nums, _ := meta.Col("R.num_samples")
		promised := 0
		for _, n := range nums.Int64s() {
			promised += int(n)
		}
		if stale == 0 || first.NumRows() != promised-stale {
			t.Fatalf("extraction has %d rows, metadata promises %d of which %d went stale", first.NumRows(), promised, stale)
		}
		vals, _ := first.Col("D.sample_value")
		peak := 0.0
		for _, v := range vals.Float64s() {
			peak = max(peak, v)
		}
		cond, err := sql.Parse(fmt.Sprintf(`SELECT x FROM t WHERE D.sample_value > %g`, peak/2))
		if err != nil {
			t.Fatal(err)
		}
		prune := plan.CompilePrune(sql.SplitConjuncts(cond.Where))
		if prune == nil {
			t.Fatal("no prune range compiled")
		}
		before := e.ExtractionStats().RecordsSkipped
		wide, err := e.Extract(meta, prune, plan.NopObserver{})
		if err != nil {
			t.Fatal(err)
		}
		if skipped := e.ExtractionStats().RecordsSkipped - before; skipped == 0 || int(skipped) >= meta.NumRows() {
			t.Fatalf("zone maps pruned %d of %d records; the test needs some, not all", skipped, meta.NumRows())
		}
		if wide.NumRows() == 0 || wide.NumRows() >= first.NumRows() {
			t.Fatalf("pruned extraction has %d rows, unpruned %d", wide.NumRows(), first.NumRows())
		}

		lists := [][]string{
			nil,
			{"F.station", "D.sample_value"},
			{"F.file_id"},
			{"D.sample_time"},
			{"F.uri", "F.sample_rate", "R.seqno", "R.start_time", "R.num_samples", "D.sample_time", "D.sample_value"},
		}
		for x, cols := range append(lists, lists...) {
			// First round unpruned against the first pass (the stale record
			// is in play), second round pruned.
			wide, prune := wide, prune
			if x < len(lists) {
				wide, prune = first, nil
			}
			proto, err := plan.ExtractProto(meta, cols)
			if err != nil {
				t.Fatal(err)
			}
			want := cols
			if cols == nil {
				want = wide.Names()
			}
			if got := strings.Join(proto.Names(), ","); got != strings.Join(want, ",") || proto.NumRows() != 0 {
				t.Fatalf("ExtractProto(%v) = [%s], %d rows", cols, got, proto.NumRows())
			}
			src, err := e.ExtractStream(meta, cols, prune, plan.NopObserver{}, 61, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := drainStream(t, src, proto)
			if got.NumRows() != wide.NumRows() {
				t.Fatalf("cols %v: stream delivered %d rows, Extract %d", cols, got.NumRows(), wide.NumRows())
			}
			for c := 0; c < got.NumCols(); c++ {
				gc := got.ColAt(c)
				wc, _ := wide.Col(gc.Name())
				for i := 0; i < gc.Len(); i++ {
					if gc.Value(i) != wc.Value(i) {
						t.Fatalf("cols %v (cache off: %v): %s[%d] = %v on the stream, %v from Extract",
							cols, opts.DisableCache, gc.Name(), i, gc.Value(i), wc.Value(i))
					}
				}
			}
		}
		if _, err := plan.ExtractProto(meta, []string{"F.station", "D.nosuch"}); err == nil {
			t.Error("ExtractProto accepted a column the universal table lacks")
		}
		if _, err := e.ExtractStream(meta, []string{"D.nosuch"}, nil, plan.NopObserver{}, 61, nil); err == nil {
			t.Error("ExtractStream accepted a column the universal table lacks")
		}
	}
}

// TestStreamMatchesEagerLoad pins the extraction stream against the one
// oracle that shares no code with it: the eager loader, which reads every
// file whole through mseed.ReadFile. Over one repository, the concatenated
// morsels of a stream over every record must equal the mseed.data table
// LoadAll builds on a second engine, row for row and bit for bit, at every
// parallelism, morsel size and recycler state.
func TestStreamMatchesEagerLoad(t *testing.T) {
	_, _, dir := newEngine(t, 3000, Options{})
	eager, eagerStore, _ := newEngineAt(t, dir, Options{})
	if _, err := eager.LoadAll(); err != nil {
		t.Fatal(err)
	}
	data, err := eagerStore.Table(catalog.TableData)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumRows() != 15*3000 {
		t.Fatalf("eager load holds %d samples, want %d", data.NumRows(), 15*3000)
	}
	cols := []string{"F.file_id", "R.seqno", "D.sample_time", "D.sample_value"}

	for _, p := range []int{1, 4} {
		for _, morsel := range []int{61, 0} {
			for _, disable := range []bool{false, true} {
				e, store, _ := newEngineAt(t, dir, Options{Parallelism: p, DisableCache: disable})
				if _, err := e.LoadMetadata(); err != nil {
					t.Fatal(err)
				}
				meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview`)
				proto, err := plan.ExtractProto(meta, cols)
				if err != nil {
					t.Fatal(err)
				}
				// Cold, then warm: with the recycler on, the second pass is
				// all cache reads; with it off, a second full extraction.
				for _, state := range []string{"cold", "warm"} {
					before := e.ExtractionStats()
					src, err := e.ExtractStream(meta, cols, nil, plan.NopObserver{}, morsel, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := drainStream(t, src, proto)
					name := fmt.Sprintf("parallelism=%d morsel=%d cache-off=%v %s", p, morsel, disable, state)
					after := e.ExtractionStats()
					if hits := after.CacheReads - before.CacheReads; (hits == int64(meta.NumRows())) != (state == "warm" && !disable) {
						t.Fatalf("%s: %d of %d records were cache reads", name, hits, meta.NumRows())
					}
					if got.NumRows() != data.NumRows() {
						t.Fatalf("%s: stream delivered %d rows, the eager load %d", name, got.NumRows(), data.NumRows())
					}
					for c := 0; c < got.NumCols(); c++ {
						gc, wc := got.ColAt(c), data.ColAt(c)
						if gc.Type() == column.Float64 {
							g, w := gc.Float64s(), wc.Float64s()
							for i := range g {
								if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
									t.Fatalf("%s: %s[%d] = %v on the stream, %s[%d] = %v eagerly loaded", name, gc.Name(), i, g[i], wc.Name(), i, w[i])
								}
							}
							continue
						}
						g, w := gc.Int64s(), wc.Int64s()
						for i := range g {
							if g[i] != w[i] {
								t.Fatalf("%s: %s[%d] = %d on the stream, %s[%d] = %d eagerly loaded", name, gc.Name(), i, g[i], wc.Name(), i, w[i])
							}
						}
					}
				}
			}
		}
	}
}

package etl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/recycler"
	"repro/internal/reference"
	"repro/internal/repo"
	"repro/internal/seisgen"
	"repro/internal/sql"
)

// runQueryEnv executes a lazy-mode query with an explicit environment
// configuration, so tests can pin the operator-at-a-time reference
// (reference true) against the pipelined streaming path at chosen worker
// counts and morsel sizes.
func runQueryEnv(e *Engine, store *catalog.Store, q string, workers, morselRows int, ref bool) (*column.Batch, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	plans, err := plan.Build(stmt, store.Catalog(), plan.Lazy)
	if err != nil {
		return nil, err
	}
	run := plan.Execute
	if ref {
		run = reference.Execute
	}
	return run(plans.Root, &plan.Env{Store: store.Snapshot(), Source: e, Pool: exec.NewPoolMorsel(workers, morselRows)})
}

// TestStreamMatchesExtract requires the streamed universal table (consumed
// through a pipelined raw select) to be byte-identical to the materializing
// Extract path, cold and warm, at several pool widths and morsel settings.
func TestStreamMatchesExtract(t *testing.T) {
	_, _, dir := newEngine(t, 3000, Options{})
	q := `SELECT D.sample_time, D.sample_value FROM mseed.dataview
	      WHERE F.channel = 'BHZ' AND D.sample_value > 10`

	oracle, oracleStore, _ := newEngineAt(t, dir, Options{})
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
			e, store, _ := newEngineAt(t, dir, Options{})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			cold, err := runQueryEnv(e, store, q, p, morsel, false)
			if err != nil {
				t.Fatalf("workers=%d morsel=%d: %v", p, morsel, err)
			}
			warm, err := runQueryEnv(e, store, q, p, morsel, false)
			if err != nil {
				t.Fatalf("workers=%d morsel=%d warm: %v", p, morsel, err)
			}
			if cold.String() != want.String() {
				t.Errorf("workers=%d morsel=%d: cold stream output differs from Extract", p, morsel)
			}
			if warm.String() != want.String() {
				t.Errorf("workers=%d morsel=%d: warm stream output differs from Extract", p, morsel)
			}
			if st := e.ExtractionStats(); st.SamplesServed == 0 {
				t.Errorf("workers=%d morsel=%d: no samples counted", p, morsel)
			}
		}
	}
}

// TestStreamDeterministicReadFailure truncates every qualifying file after
// the metadata load, so prefetch ReadAt calls fail mid-query. Whatever run
// fails first in wall-clock time, the surfaced error must be that of the
// earliest failing run in plan order — identical to the materializing
// extractor's, at every pool width.
func TestStreamDeterministicReadFailure(t *testing.T) {
	_, _, dir := newEngine(t, 2000, Options{})
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	truncate := func(e *Engine) {
		n := 0
		for _, f := range listed(t, e) {
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

	oracle, oracleStore, _ := newEngineAt(t, dir, Options{})
	if _, err := oracle.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	const tries = 3
	type eng struct {
		e       *Engine
		s       *catalog.Store
		workers int
	}
	var streams []eng
	for _, p := range []int{1, 8} {
		for i := 0; i < tries; i++ {
			e, store, _ := newEngineAt(t, dir, Options{})
			if _, err := e.LoadMetadata(); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, eng{e, store, p})
		}
	}
	truncate(oracle)

	_, wantErr := runQueryEnv(oracle, oracleStore, q, 1, 0, true)
	if wantErr == nil {
		t.Fatal("materializing extraction over truncated files did not fail")
	}
	for i, se := range streams {
		_, err := runQueryEnv(se.e, se.s, q, se.workers, 61, false)
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
	meta, err := plan.Execute(plans.Root.(*plan.LazyExtract).Meta, &plan.Env{Store: store.Snapshot()})
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
	for _, c := range []struct {
		opts  Options
		width int
	}{{Options{DisableCache: true}, 1}, {Options{}, 4}} {
		opts, width := c.opts, c.width
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
			src, err := e.ExtractStream(context.Background(), meta, cols, prune, nil, nil, plan.NopObserver{}, 61, width, nil)
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
		if _, err := e.ExtractStream(context.Background(), meta, []string{"D.nosuch"}, nil, nil, nil, plan.NopObserver{}, 61, width, nil); err == nil {
			t.Error("ExtractStream accepted a column the universal table lacks")
		}
	}
}

// TestStreamMatchesEagerLoad pins the extraction stream, and the eager
// load that drains it, against an oracle that shares no code with either:
// mseed.data decoded here, file by file, through mseed.ReadFile, with the
// default gain of 1 and the sample-time expression written out. Over one
// repository, the eager load's mseed.data and the concatenated morsels of a
// stream over every record must equal it, row for row and bit for bit, at
// every pool width, morsel size and recycler state — and whatever a morsel's
// D.sample_value turns out to be: a view of one run's buffer (all misses,
// or hits admitted together), or a copy (hits beside misses, rows the zone
// maps pruned in between, a record whose count went stale after the
// metadata load and decoded into a buffer of its own) — with D.sample_time
// listed and generated, and not listed. Cut by a sample window, the stream
// must deliver exactly the oracle's rows whose time lies inside it, and
// count every other sample of the records it delivered as trimmed.
func TestStreamMatchesEagerLoad(t *testing.T) {
	_, _, dir := newEngine(t, 3000, Options{})

	// Every lazy engine loads its metadata before one record loses its
	// samples on disk, so each meets a misfit; the eager engine loads after,
	// so it is the oracle of what the files hold when the streams run.
	type lazyEngine struct {
		e             *Engine
		store         *catalog.Store
		width, morsel int
		disable       bool
	}
	var engines []lazyEngine
	for _, width := range []int{1, 2, 4, 8} {
		for _, morsel := range []int{61, 4099, 0} {
			for _, disable := range []bool{false, true} {
				e, store, _ := newEngineAt(t, dir, Options{DisableCache: disable})
				if _, err := e.LoadMetadata(); err != nil {
					t.Fatal(err)
				}
				engines = append(engines, lazyEngine{e, store, width, morsel, disable})
			}
		}
	}
	path, _ := fileFor(t, engines[0].e, "HGN", "BHZ")
	infos, err := mseed.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := patchRecordSampleCount(t, path, infos[2].Offset, 0)

	eager, eagerStore, _ := newEngineAt(t, dir, Options{})
	fid, seq := column.New("file_id", column.Int64), column.New("seqno", column.Int64)
	ts, vs := column.New("sample_time", column.Timestamp), column.New("sample_value", column.Float64)
	for id, f := range listed(t, eager) {
		recs, err := mseed.ReadFile(f.AbsPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			start, rate := r.Header.StartNanos(), r.Header.SampleRate()
			for k, x := range r.Samples {
				fid.AppendInt64(int64(id))
				seq.AppendInt64(int64(r.Header.SeqNo))
				if rate > 0 {
					ts.AppendInt64(start + int64(float64(k)/rate*1e9))
				} else {
					ts.AppendInt64(start)
				}
				vs.AppendFloat64(float64(x) * 1.0)
			}
		}
	}
	data := column.MustNewBatch(fid, seq, ts, vs)
	if stale == 0 || data.NumRows() != 15*3000-stale {
		t.Fatalf("the files hold %d samples, want %d less the %d that went stale", data.NumRows(), 15*3000, stale)
	}
	if _, err := eager.LoadAll(); err != nil {
		t.Fatal(err)
	}
	loaded, err := eagerStore.Table(catalog.TableData)
	if err != nil {
		t.Fatal(err)
	}
	if diff := bitDiff(loaded, data, nil); diff != "" {
		t.Fatalf("eager load: %s", diff)
	}
	// oracleCol is the mseed.data column a universal-table column must equal.
	oracleCol := map[string]string{"F.file_id": "file_id", "R.seqno": "seqno", "D.sample_time": "sample_time", "D.sample_value": "sample_value"}

	// The pruned passes drop the records no sample of which exceeds half
	// the peak; the oracle drops the same records by its own reckoning, from
	// the eager values of each (file, record).
	dv, _ := data.Col("sample_value")
	peak := 0.0
	for _, v := range dv.Float64s() {
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
	var kept []int32
	{
		fid, _ := data.Col("file_id")
		seq, _ := data.Col("seqno")
		f, s, v := fid.Int64s(), seq.Int64s(), dv.Float64s()
		for lo := 0; lo < len(v); {
			hi := lo
			for hi < len(v) && f[hi] == f[lo] && s[hi] == s[lo] {
				hi++
			}
			if prune.Admit(catalog.CollectZone(v[lo:hi])) != plan.AdmitNone {
				for i := lo; i < hi; i++ {
					kept = append(kept, int32(i))
				}
			}
			lo = hi
		}
	}
	if len(kept) == 0 || len(kept) == data.NumRows() {
		t.Fatalf("the prune range keeps %d of %d rows; the test needs some, not all", len(kept), data.NumRows())
	}
	pruned := data.Gather(kept)

	// The windowed passes cut a stretch out of the first file's day; the
	// oracle keeps the eager rows whose own loaded time lies inside it.
	dt, _ := data.Col("sample_time")
	times := dt.Int64s()
	win := &plan.SampleWindow{Lo: min(times[1000], times[2000]) + 1, Hi: max(times[1000], times[2000]) - 1}
	within := func(rows *column.Batch) *column.Batch {
		c, _ := rows.Col("sample_time")
		var sel []int32
		for i, t := range c.Int64s() {
			if win.Lo <= t && t <= win.Hi {
				sel = append(sel, int32(i))
			}
		}
		return rows.Gather(sel)
	}
	windowed, prunedWindowed := within(data), within(pruned)
	{
		// Some record must straddle an edge, or no record is cut.
		fid, _ := data.Col("file_id")
		seq, _ := data.Col("seqno")
		f, s := fid.Int64s(), seq.Int64s()
		straddles := 0
		for lo := 0; lo < len(times); {
			hi, in := lo, 0
			for hi < len(times) && f[hi] == f[lo] && s[hi] == s[lo] {
				if win.Lo <= times[hi] && times[hi] <= win.Hi {
					in++
				}
				hi++
			}
			if in > 0 && in < hi-lo {
				straddles++
			}
			lo = hi
		}
		if straddles == 0 || windowed.NumRows() == 0 || prunedWindowed.NumRows() == 0 {
			t.Fatalf("the window keeps %d rows (%d pruned) and cuts %d records; the test needs some of each", windowed.NumRows(), prunedWindowed.NumRows(), straddles)
		}
	}

	withTimes := []string{"F.file_id", "R.seqno", "D.sample_time", "D.sample_value"}
	valuesOnly := []string{"F.file_id", "R.seqno", "D.sample_value"}
	for _, le := range engines {
		e := le.e
		meta := dataviewMeta(t, le.store, `SELECT * FROM mseed.dataview`)
		uris, _ := meta.Col("F.uri")
		seqs, _ := meta.Col("R.seqno")
		// forget drops every step-th record from the recycler, so the next
		// pass finds hits and misses side by side in every morsel.
		forget := func(step int) (dropped int) {
			for i := 0; i < meta.NumRows(); i += step {
				key := recycler.Key{URI: uris.Strings()[i], SeqNo: int(seqs.Int64s()[i])}
				if _, hit := e.Cache().Lookup(key, time.Now().Add(time.Hour), 0); hit {
					t.Fatal("a lookup from the future must invalidate, not hit")
				}
				dropped++
			}
			return dropped
		}
		for _, pass := range []struct {
			state  string
			cols   []string
			prune  *plan.PruneRange
			win    *plan.SampleWindow
			want   *column.Batch
			forget int // drop every forget-th record first; 0 = none
		}{
			{"cold", withTimes, nil, nil, data, 0},
			{"warm", valuesOnly, nil, nil, data, 0},
			{"mixed", withTimes, nil, nil, data, 3},
			{"mixed, values only", valuesOnly, nil, nil, data, 2},
			{"windowed", withTimes, nil, win, windowed, 0},
			{"mixed and windowed, values only", valuesOnly, nil, win, windowed, 3},
			{"mixed and pruned", withTimes, prune, nil, pruned, 4},
			{"pruned, values only", valuesOnly, prune, nil, pruned, 0},
			{"pruned and windowed", withTimes, prune, win, prunedWindowed, 0},
		} {
			name := fmt.Sprintf("workers=%d morsel=%d cache-off=%v %s", le.width, le.morsel, le.disable, pass.state)
			wantHits := int64(meta.NumRows())
			if pass.prune != nil {
				wantHits = 0 // counted below: pruned rows are neither hits nor misses
			}
			if pass.forget > 0 {
				wantHits -= int64(forget(pass.forget))
			}
			if pass.state == "cold" || le.disable {
				wantHits = 0
			}
			proto, err := plan.ExtractProto(meta, pass.cols)
			if err != nil {
				t.Fatal(err)
			}
			before := e.ExtractionStats()
			src, err := e.ExtractStream(context.Background(), meta, pass.cols, pass.prune, pass.win, nil, plan.NopObserver{}, le.morsel, le.width, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := drainStream(t, src, proto)
			after := e.ExtractionStats()
			whole := data
			if pass.prune != nil {
				whole = pruned
			}
			if served, trimmed, _ := src.(plan.RowsServedCounter).RowsServed(); served+trimmed != int64(whole.NumRows()) || (pass.win == nil) != (trimmed == 0) {
				t.Fatalf("%s: %d samples served and %d trimmed; the records delivered hold %d", name, served, trimmed, whole.NumRows())
			}
			if hits := after.CacheReads - before.CacheReads; pass.prune == nil && hits != wantHits {
				t.Fatalf("%s: %d of %d records were cache reads, want %d", name, hits, meta.NumRows(), wantHits)
			}
			if pass.prune != nil && after.RecordsSkipped == before.RecordsSkipped {
				t.Fatalf("%s: the zone maps pruned nothing", name)
			}
			if diff := bitDiff(got, pass.want, oracleCol); diff != "" {
				t.Fatalf("%s: %s", name, diff)
			}
		}
	}
}

// bitDiff describes the first difference between got and want, bit for bit
// and row for row, or returns "" when got's columns equal their
// counterparts in want: the one named by as (nil: the same name).
func bitDiff(got, want *column.Batch, as map[string]string) string {
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < got.NumCols(); c++ {
		gc := got.ColAt(c)
		name := gc.Name()
		if as != nil {
			name = as[name]
		}
		wc, ok := want.Col(name)
		if !ok || gc.Type() != wc.Type() {
			return fmt.Sprintf("%s (%v) has no counterpart %s", gc.Name(), gc.Type(), name)
		}
		for i := 0; i < gc.Len(); i++ {
			var same bool
			switch gc.Type() {
			case column.Float64:
				same = math.Float64bits(gc.Float64s()[i]) == math.Float64bits(wc.Float64s()[i])
			case column.String:
				same = gc.Strings()[i] == wc.Strings()[i]
			default:
				same = gc.Int64s()[i] == wc.Int64s()[i]
			}
			if !same {
				return fmt.Sprintf("%s[%d] = %v, want %s[%d] = %v", gc.Name(), i, gc.Value(i), name, i, wc.Value(i))
			}
		}
	}
	return ""
}

// countStream drains one stream over meta as a two-worker pool would — the
// default morsel size, two prefetch workers — keeping nothing, and returns
// the rows it served.
func countStream(tb testing.TB, e *Engine, meta *column.Batch, cols []string) (rows int) {
	tb.Helper()
	src, err := e.ExtractStream(context.Background(), meta, cols, nil, nil, nil, plan.NopObserver{}, 0, 2, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer src.Close()
	for {
		m, ok, err := src.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows += m.B.NumRows()
	}
}

// TestColdExtractWritesEachSampleOnce gates the bytes a cold extraction
// allocates: a values-only stream over every record may allocate the value
// buffers — 8 bytes a sample, which the morsels view — plus bookkeeping in
// proportion to the records, and nothing else in proportion to the samples:
// no sample times nobody listed, no second copy into the morsel. (The
// two-vector entry plus the morsel copy this replaced cost 24 bytes a sample
// and more.) A warm pass, all hits admitted together, allocates no sample
// vector at all. Machine-independent: it counts bytes, not time.
func TestColdExtractWritesEachSampleOnce(t *testing.T) {
	cols := []string{"F.station", "D.sample_value"}
	measure := func(e *Engine, meta *column.Batch) (bytes uint64, samples int) {
		drain := func() { samples = countStream(t, e, meta, cols) }
		drain() // fills the pooled read and decode scratch
		bytes = math.MaxUint64
		var before, after runtime.MemStats
		for try := 0; try < 3; try++ {
			runtime.ReadMemStats(&before)
			drain()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return bytes, samples
	}

	cold, coldStore, _ := newEngine(t, 20000, Options{DisableCache: true})
	if _, err := cold.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	meta := dataviewMeta(t, coldStore, `SELECT * FROM mseed.dataview`)
	records := meta.NumRows()
	bytes, samples := measure(cold, meta)
	if samples != 15*20000 {
		t.Fatalf("stream served %d samples, want %d", samples, 15*20000)
	}
	if limit := uint64(9*samples + 1024*records); bytes > limit {
		t.Errorf("cold values-only stream allocated %d bytes for %d samples in %d records (%.1f B/sample), want at most 9 B/sample + 1 KB/record = %d",
			bytes, samples, records, float64(bytes)/float64(samples), limit)
	}
	t.Logf("cold: %d bytes, %.2f B/sample, %d records", bytes, float64(bytes)/float64(samples), records)

	warm, warmStore, _ := newEngine(t, 20000, Options{})
	if _, err := warm.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	meta = dataviewMeta(t, warmStore, `SELECT * FROM mseed.dataview`)
	bytes, samples = measure(warm, meta)
	if limit := uint64(samples + 1024*records); bytes > limit {
		t.Errorf("warm values-only stream allocated %d bytes for %d samples in %d records, want at most 1 B/sample + 1 KB/record = %d: a morsel of hits admitted together is a view",
			bytes, samples, records, limit)
	}
	t.Logf("warm: %d bytes, %.2f B/sample", bytes, float64(bytes)/float64(samples))
}

// TestPrefetchWorkers pins the stream's worker count — one per worker of the
// consuming pool, at least one, never more than there are runs — and then
// runs the widest case under the worst budget: eight workers over three runs
// with a ledger that denies every Try, so every run is extracted inline by the
// consumer while the workers wait to be woken. The rows must still be those
// of one worker under no budget, bit for bit, no worker may have claimed a
// run, and the grant must come back.
func TestPrefetchWorkers(t *testing.T) {
	for _, c := range []struct{ width, runs, want int }{
		{1, 16, 1}, {2, 16, 2}, {8, 3, 3}, {2, 0, 0}, {0, 5, 1},
	} {
		if got := prefetchWorkers(c.width, c.runs); got != c.want {
			t.Errorf("prefetchWorkers(%d, %d) = %d, want %d", c.width, c.runs, got, c.want)
		}
	}

	_, _, dir := newEngine(t, 3000, Options{})
	extract := func(width int, led *mem.Ledger) (string, int64) {
		e, store, _ := newEngineAt(t, dir, Options{DisableCache: true})
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview WHERE F.station = 'ISK'`)
		proto, err := plan.ExtractProto(meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := e.ExtractStream(context.Background(), meta, nil, nil, nil, nil, plan.NopObserver{}, 500, width, led)
		if err != nil {
			t.Fatal(err)
		}
		out := drainStream(t, src, proto).String()
		st := e.ExtractionStats()
		if st.RunsRead != 3 {
			t.Fatalf("width %d: %d runs read, want 3 (one per ISK file)", width, st.RunsRead)
		}
		return out, st.PrefetchedRuns
	}
	want, _ := extract(1, nil)
	for try := 0; try < 10; try++ {
		led := mem.New(1) // every run's estimate exceeds one byte
		got, prefetched := extract(8, led)
		if got != want {
			t.Fatalf("try %d: width 8 under a denying ledger differs from width 1", try)
		}
		if prefetched != 0 || led.Used() != 0 {
			t.Fatalf("try %d: %d runs prefetched past the budget, ledger holds %d bytes after Close; want 0 and 0", try, prefetched, led.Used())
		}
	}
}

// TestStreamPanicContainment: a run whose extraction panics fails the
// stream with that run's *exec.PanicError, not the process, whether a
// prefetch worker extracted it or the consumer did inline (under a ledger
// that denies every prefetch), at pool widths {1,2,8}, and so does a
// pipelined query over it. No goroutine outlives the stream, the ledger is
// back at 0, and the next stream and query are bit-identical to ones that
// never failed.
func TestStreamPanicContainment(t *testing.T) {
	defer func() { extractRunHook = func(int) {} }()
	e, store, _ := newEngine(t, 2000, Options{DisableCache: true})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview`)
	cols := []string{"F.file_id", "R.seqno", "D.sample_time", "D.sample_value"}
	proto, err := plan.ExtractProto(meta, cols)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(width int, led *mem.Ledger) exec.BatchSource {
		src, err := e.ExtractStream(context.Background(), meta, cols, nil, nil, nil, plan.NopObserver{}, 0, width, led)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	want := drainStream(t, stream(1, nil), proto)
	q := `SELECT F.station, COUNT(*), SUM(D.sample_value) FROM mseed.dataview GROUP BY F.station ORDER BY F.station`
	wantQ, err := runQueryEnv(e, store, q, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	const at = 2 // the run that panics
	isBoom := func(err error) bool {
		var pe *exec.PanicError
		return errors.As(err, &pe) && pe.Value == "extract boom"
	}
	for _, width := range []int{1, 2, 8} {
		for _, inline := range []bool{false, true} {
			name := fmt.Sprintf("width=%d inline=%v", width, inline)
			led := mem.New(0)
			if inline {
				led = mem.New(1)
			}
			base := runtime.NumGoroutine()
			prefetched := e.ExtractionStats().PrefetchedRuns
			fired := make(chan struct{})
			extractRunHook = func(r int) {
				if r == at {
					close(fired)
					panic("extract boom")
				}
			}
			src := stream(width, led)
			if !inline {
				<-fired // a prefetch worker has met the panic
			}
			var err error
			for ok := true; ok && err == nil; {
				_, ok, err = src.Next()
			}
			src.Close()
			extractRunHook = func(int) {}
			if !isBoom(err) {
				t.Errorf("%s: want the run's PanicError, got %v", name, err)
			}
			if n := e.ExtractionStats().PrefetchedRuns - prefetched; (n == 0) != inline {
				t.Errorf("%s: %d runs prefetched", name, n)
			}
			waitGoroutines(t, base, name)
			if used := led.Used(); used != 0 {
				t.Errorf("%s: ledger holds %d bytes after the failed stream", name, used)
			}
			if diff := bitDiff(drainStream(t, stream(width, led), proto), want, nil); diff != "" {
				t.Errorf("%s: next stream: %s", name, diff)
			}
		}

		extractRunHook = func(r int) {
			if r == at {
				panic("extract boom")
			}
		}
		_, err := runQueryEnv(e, store, q, width, 0, false)
		extractRunHook = func(int) {}
		if !isBoom(err) {
			t.Errorf("width=%d: want the query to fail with the run's PanicError, got %v", width, err)
		}
		got, err := runQueryEnv(e, store, q, width, 0, false)
		if err != nil {
			t.Fatalf("width=%d: next query: %v", width, err)
		}
		if diff := bitDiff(got, wantQ, nil); diff != "" {
			t.Errorf("width=%d: next query: %s", width, diff)
		}
	}
}

// TestStreamStopsOnCancel: a cancel reaches a stream whose one prefetch
// worker is held inside its first run and whose consumer waits for that
// run. Next returns context.Canceled while the run is still held, the
// worker claims no run after the cancel, and Close leaves no goroutine and
// no ledger byte behind.
func TestStreamStopsOnCancel(t *testing.T) {
	defer func() { extractRunHook = func(int) {} }()
	e, store, _ := newEngine(t, 2000, Options{DisableCache: true})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	meta := dataviewMeta(t, store, `SELECT * FROM mseed.dataview`)
	var mu sync.Mutex // guards started and cancelled
	started, cancelled := 0, false
	held, release := make(chan struct{}), make(chan struct{})
	extractRunHook = func(r int) {
		mu.Lock()
		started++
		if cancelled {
			t.Errorf("run %d started after the cancel", r)
		}
		mu.Unlock()
		if r == 0 {
			close(held)
			<-release
		}
	}
	base := runtime.NumGoroutine()
	led := mem.New(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src, err := e.ExtractStream(ctx, meta, nil, nil, nil, nil, plan.NopObserver{}, 64, 1, led)
	if err != nil {
		t.Fatal(err)
	}
	<-held // the worker holds run 0, so the consumer waits for it
	next := make(chan error, 1)
	go func() {
		_, _, err := src.Next()
		next <- err
	}()
	time.Sleep(10 * time.Millisecond) // time to reach the stall wait; Canceled either way
	mu.Lock()
	cancel()
	cancelled = true
	mu.Unlock()
	select {
	case err := <-next:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Next after the cancel: %v, want %v", err, context.Canceled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next still waits for the held run after the cancel")
	}
	close(release)
	src.Close()
	if started != 1 {
		t.Errorf("%d runs started, want only the held one", started)
	}
	waitGoroutines(t, base, "after the cancelled stream")
	if used := led.Used(); used != 0 {
		t.Errorf("ledger holds %d bytes after the cancelled stream", used)
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base.
func waitGoroutines(t *testing.T, base int, name string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines, want at most %d", name, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileReplacedBetweenStatAndOpen: a file renamed over between
// prepare's stat and openRuns' open is prepared again, so a query never
// pairs the zone answers and recycled records of the file it stat'ed with
// records read from the file it opened. The rewrite keeps the layout
// (INT32 records, the same times and counts) and the size, and moves the
// mtime: the answer must be the new file's, as a fresh engine loads it —
// for a statement whose early records the old file's zones answer, and for
// one (with SUM, which records without zones keep from being answered)
// whose early records the recycler holds. A file that keeps changing fails
// the query naming it, after three tries.
func TestFileReplacedBetweenStatAndOpen(t *testing.T) {
	defer func() { openRunsHook = func(*extractSink) {} }()
	gen := func(seed int64) string {
		dir := t.TempDir()
		if _, err := seisgen.Generate(seisgen.RepoConfig{Dir: dir, Stations: seisgen.DefaultStations[:1], Channels: []string{"BHZ"},
			SamplesPerDay: 3000, Encoding: mseed.EncodingInt32, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	open := func(dir string) (*Engine, *catalog.Store) {
		rp, err := repo.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		store := catalog.NewStore(catalog.MSEED())
		e := New(rp, store, Options{})
		if _, err := e.LoadMetadata(); err != nil {
			t.Fatal(err)
		}
		return e, store
	}
	var (
		e       *Engine
		store   *catalog.Store
		uri     string
		replace func()
	)
	for _, c := range []struct {
		q        string
		answered bool // the old file's zones answer the early records
	}{
		{`SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview`, true},
		{`SELECT COUNT(*), SUM(D.sample_value), MIN(D.sample_value), MAX(D.sample_value) FROM mseed.dataview`, false},
	} {
		dir, next := gen(1), gen(2)
		rp, err := repo.Open(dir)
		if err != nil || len(rp.Files) != 1 {
			t.Fatalf("setup: %v, %d files", err, len(rp.Files))
		}
		path := rp.Files[0].AbsPath
		uri = rp.Files[0].URI
		replacement, err := os.ReadFile(filepath.Join(next, filepath.FromSlash(uri)))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(replacement)) != rp.Files[0].Size {
			t.Fatalf("setup: the replacement has %d bytes, the file %d", len(replacement), rp.Files[0].Size)
		}
		old, oldStore := open(dir)
		before := fmt.Sprint(runLazyQuery(t, old, oldStore, c.q).Row(0))
		// The early records have zones, and recycler entries, at the old
		// stat: the query takes them from there and reads the rest.
		e, store = open(dir)
		runLazyQuery(t, e, store, `SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_time < '2010-01-12 00:00:40'`)

		// replace renames a copy of the replacement over the file, one
		// second further on each time.
		mtime := rp.Files[0].ModTime
		replace = func() {
			mtime = mtime.Add(time.Second)
			tmp := path + ".new"
			if err := os.WriteFile(tmp, replacement, 0o644); err != nil {
				t.Error(err)
			}
			if err := os.Chtimes(tmp, mtime, mtime); err != nil {
				t.Error(err)
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Error(err)
			}
		}
		prepares, answered, recycled := 0, int64(0), int64(0)
		openRunsHook = func(sink *extractSink) {
			if prepares++; prepares == 1 {
				answered = sink.zones.Count
				for _, ent := range sink.entries {
					if ent != nil && ent != prunedEntry {
						recycled++
					}
				}
				replace()
			}
		}
		stats := e.ExtractionStats()
		got := fmt.Sprint(runLazyQuery(t, e, store, c.q).Row(0))
		if prepares != 2 {
			t.Errorf("%s: prepared %d times, want 2: once at the old stat, once at the new", c.q, prepares)
		}
		if c.answered != (answered > 0) || !c.answered && recycled == 0 {
			t.Errorf("%s: the first prepare answered %d samples from zones and recycled %d records", c.q, answered, recycled)
		}
		// Only the prepare whose files opened counts: the query's qualifying
		// records, each once.
		after := e.ExtractionStats()
		qualifying := int64(store.Snapshot().Rows(catalog.TableRecords))
		if split := after.CacheReads - stats.CacheReads + after.Extractions - stats.Extractions +
			after.RecordsAnswered - stats.RecordsAnswered + after.RecordsSkipped - stats.RecordsSkipped; split != qualifying {
			t.Errorf("%s: %d recycled + %d decoded + %d answered + %d pruned, want %d qualifying records", c.q,
				after.CacheReads-stats.CacheReads, after.Extractions-stats.Extractions,
				after.RecordsAnswered-stats.RecordsAnswered, after.RecordsSkipped-stats.RecordsSkipped, qualifying)
		}
		if opened := after.FilesTouched - stats.FilesTouched; opened != 1 {
			t.Errorf("%s: %d file opens counted, want 1", c.q, opened)
		}
		openRunsHook = func(*extractSink) {}
		fresh, freshStore := open(dir)
		want := fmt.Sprint(runLazyQuery(t, fresh, freshStore, c.q).Row(0))
		if want == before {
			t.Fatalf("setup: the rewrite left the answer %s unchanged", want)
		}
		if got != want {
			t.Errorf("%s: answer across the rename = %s, want the new file's %s (the old file's was %s)", c.q, got, want, before)
		}
	}

	// A file that changes before every open fails the query, naming it.
	e.Cache().InvalidateFile(uri)
	store.Zones().InvalidateFile(uri)
	prepares := 0
	openRunsHook = func(*extractSink) { prepares++; replace() }
	_, err := runLazyQueryErr(e, store, `SELECT F.uri, COUNT(*) FROM mseed.dataview GROUP BY F.uri`)
	if err == nil || !errors.Is(err, errFileChanged) || !strings.Contains(err.Error(), uri) {
		t.Errorf("a file changing before every open: %v, want an error naming %s", err, uri)
	}
	if prepares != 1+maxReprepares {
		t.Errorf("prepared %d times, want %d", prepares, 1+maxReprepares)
	}
}

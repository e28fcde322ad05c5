package exec

// Oracle tests for memory-governed execution: the full join/aggregate
// matrix across worker counts and budgets must be bit-identical to the
// serial in-memory engine, the aggregation sink must account on the ledger
// without spilling, spill files must round-trip exactly, corruption must
// fail deterministically, and per-query spill directories must be removed
// on every exit path — mid-spill failure included.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/sql"
)

// The budget axis of the spill matrix: tinyBudget is small enough that
// every partition grant is denied (the forced-spill case); midBudget lets
// some partitions stay resident while others spill.
const (
	tinyBudget = 1 << 10
	midBudget  = 24 << 10
)

// spillEngines is the worker axis: the serial engine, one worker, and
// parallel pools with a morsel size small enough that a few thousand rows
// split into many morsels.
func spillEngines() []struct {
	name string
	pool *Pool
} {
	return []struct {
		name string
		pool *Pool
	}{
		{"serial", nil},
		{"workers=1", NewPool(1)},
		{"workers=2", &Pool{workers: 2, morsel: 61}},
		{"workers=8", &Pool{workers: 8, morsel: 61}},
	}
}

// spillJoinInputs builds a (left, right) pair with duplicate keys, nulls
// and — on the float column — NaN and signed-zero keys.
func spillJoinInputs(rng *rand.Rand, ln, rn int) (*column.Batch, *column.Batch) {
	words := []string{"alpha", "beta", "gamma", "delta", ""}
	mk := func(n int, prefix string) *column.Batch {
		id := column.New(prefix+"id", column.Int64)
		s := column.New(prefix+"s", column.String)
		v := column.New(prefix+"v", column.Float64)
		pay := column.New(prefix+"pay", column.Int64)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				id.AppendNull()
			} else {
				id.AppendInt64(rng.Int63n(int64(n/6) + 1))
			}
			if rng.Float64() < 0.05 {
				s.AppendNull()
			} else {
				s.AppendString(words[rng.Intn(len(words))])
			}
			switch rng.Intn(12) {
			case 0:
				v.AppendFloat64(math.NaN())
			case 1:
				v.AppendFloat64(math.Copysign(0, -1))
			default:
				v.AppendFloat64(float64(rng.Intn(40)) / 4)
			}
			pay.AppendInt64(int64(i))
		}
		return column.MustNewBatch(id, s, v, pay)
	}
	return mk(ln, "l"), mk(rn, "r")
}

func TestJoinSpillBitIdenticalToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	left, right := spillJoinInputs(rng, 2500, 1800)
	configs := []struct {
		name   string
		lk, rk []string
	}{
		{"int-key", []string{"lid"}, []string{"rid"}},
		{"float-key", []string{"lv"}, []string{"rv"}},
		{"string-key", []string{"ls"}, []string{"rs"}},
		{"multi-key", []string{"lid", "ls"}, []string{"rid", "rs"}},
	}
	budgets := []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"mid", midBudget},
		{"tiny", tinyBudget},
	}
	for _, cfg := range configs {
		oracle, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, cfg.lk, cfg.rk)
		if err != nil {
			t.Fatalf("%s: oracle: %v", cfg.name, err)
		}
		for _, eng := range spillEngines() {
			for _, bg := range budgets {
				t.Run(cfg.name+"/"+eng.name+"/budget="+bg.name, func(t *testing.T) {
					qm := NewQueryMem(mem.New(bg.budget), t.TempDir())
					defer qm.Cleanup()
					got, js, err := eng.pool.HashJoinMem(qm, left, right, cfg.lk, cfg.rk)
					if err != nil {
						t.Fatalf("HashJoinMem: %v", err)
					}
					if diff, ok := bitIdenticalBatches(got, oracle); !ok {
						t.Fatalf("not bit-identical to in-memory oracle: %s", diff)
					}
					if bg.budget == tinyBudget {
						if js.SpilledPartitions == 0 || js.SpilledBytes == 0 || js.SpilledRows == 0 {
							t.Fatalf("tiny budget must force spilling, stats = %+v", js)
						}
					}
					if bg.budget == 0 && js.SpilledPartitions != 0 {
						t.Fatalf("unlimited budget must not spill, stats = %+v", js)
					}
					// The pipeline's form of the same join: the table is built
					// against a zero-row prototype, then probed morsel-wise when
					// resident or as one collected batch when it spilled.
					jp, err := BuildProbeTable(context.Background(), left.Range(0, 0), right, cfg.lk, cfg.rk, eng.pool, qm)
					if err != nil {
						t.Fatalf("BuildProbeTable: %v", err)
					}
					defer jp.Close()
					var piped *column.Batch
					if jp.Spilled() {
						piped, err = jp.NewStage().ProbeBatch(context.Background(), left)
					} else {
						sink := NewCollectSink(oracle.Range(0, 0))
						if _, err = eng.pool.RunPipeline(context.Background(), NewBatchMorsels(left, eng.pool.MorselRows()), []PipeStage{jp.NewStage()}, sink); err == nil {
							piped, err = sink.Finish()
						}
					}
					if err != nil {
						t.Fatalf("pipelined probe: %v", err)
					}
					if diff, ok := bitIdenticalBatches(piped, oracle); !ok {
						t.Fatalf("pipelined probe (spilled=%v) not bit-identical to in-memory oracle: %s", jp.Spilled(), diff)
					}
				})
			}
		}
	}
}

// spillAggInputs builds a high-cardinality grouping batch: ~nkeys distinct
// int keys (with nulls), a string dimension, and float values whose sums
// are order-sensitive.
func spillAggInputs(rng *rand.Rand, n, nkeys int) *column.Batch {
	k := column.New("k", column.Int64)
	s := column.New("s", column.String)
	v := column.New("v", column.Float64)
	d := column.New("d", column.Int64)
	words := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.03 {
			k.AppendNull()
		} else {
			k.AppendInt64(rng.Int63n(int64(nkeys)))
		}
		s.AppendString(words[rng.Intn(len(words))])
		v.AppendFloat64(rng.NormFloat64() * 100)
		d.AppendInt64(rng.Int63n(23))
	}
	return column.MustNewBatch(k, s, v, d)
}

// TestAggSinkBudgetBitIdenticalToInMemory runs the aggregation sink under
// every budget: output must match the unbudgeted serial reference, a budget
// the group table outgrows must show up as denials and high-water overage
// rather than as spill files, and Finish must return every reserved byte.
func TestAggSinkBudgetBitIdenticalToInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	b := spillAggInputs(rng, 3000, 400)
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "v"}, OutName: "sv"},
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "v"}, OutName: "av"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "v"}, OutName: "mv"},
		{Func: "COUNT", Arg: &sql.ColumnRef{Name: "d"}, Distinct: true, OutName: "dd"},
	}
	configs := []struct {
		name    string
		groupBy []sql.Expr
	}{
		{"global", nil},
		{"int-key", []sql.Expr{&sql.ColumnRef{Name: "k"}}},
		{"string-key", []sql.Expr{&sql.ColumnRef{Name: "s"}}},
		{"multi-key", []sql.Expr{&sql.ColumnRef{Name: "k"}, &sql.ColumnRef{Name: "s"}}},
	}
	budgets := []int64{0, midBudget, tinyBudget}
	for _, cfg := range configs {
		oracle, err := Aggregate(b, cfg.groupBy, aggs)
		if err != nil {
			t.Fatalf("%s: oracle: %v", cfg.name, err)
		}
		for _, eng := range spillEngines() {
			for _, budget := range budgets {
				t.Run(fmt.Sprintf("%s/%s/budget=%d", cfg.name, eng.name, budget), func(t *testing.T) {
					root := t.TempDir()
					led := mem.New(budget)
					qm := NewQueryMem(led, root)
					defer qm.Cleanup()
					got, err := pipeAggregate(eng.pool, qm, b, cfg.groupBy, aggs)
					if err != nil {
						t.Fatalf("pipeAggregate: %v", err)
					}
					if diff, ok := bitIdenticalBatches(got, oracle); !ok {
						t.Fatalf("not bit-identical to in-memory oracle: %s", diff)
					}
					snap := led.Snapshot()
					if snap.Used != 0 {
						t.Fatalf("sink left %d bytes reserved after Finish", snap.Used)
					}
					if snap.HighWater == 0 {
						t.Fatal("sink reserved nothing: group table and DISTINCT sets must be accounted")
					}
					if budget == tinyBudget && (snap.Denials == 0 || snap.HighWater <= budget) {
						t.Fatalf("tiny budget must be denied and overrun, ledger = %+v", snap)
					}
					if budget == 0 && snap.Denials != 0 {
						t.Fatalf("unlimited budget must never deny, ledger = %+v", snap)
					}
					if entries, _ := os.ReadDir(root); len(entries) != 0 {
						t.Fatalf("the sink must not spill, found %d entries under the spill root", len(entries))
					}
				})
			}
		}
	}
}

func TestSpillRowCodecRoundTrip(t *testing.T) {
	type rec struct {
		row  int32
		hash uint64
		key  []byte
	}
	recs := []rec{
		{0, 0, nil},
		{42, 0xDEADBEEFCAFEF00D, []byte{}},
		{1 << 20, 7, []byte("i\x01\x02\x03\x04\x05\x06\x07\x08")},
		{-3, ^uint64(0), bytes.Repeat([]byte{0xAB}, 300)},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendSpillRecord(buf, r.row, r.hash, r.key)
	}
	sr := newSpillReader("mem", bytes.NewReader(buf))
	for i, want := range recs {
		row, hash, key, err := sr.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if row != want.row || hash != want.hash || !bytes.Equal(key, want.key) {
			t.Fatalf("record %d: got (%d, %x, %x), want (%d, %x, %x)", i, row, hash, key, want.row, want.hash, want.key)
		}
	}
	if _, _, _, err := sr.next(); err == nil || err.Error() != "EOF" {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestSpillReaderCorruptionIsDeterministic(t *testing.T) {
	var buf []byte
	boundaries := map[int]bool{0: true}
	for i := 0; i < 3; i++ {
		buf = appendSpillRecord(buf, int32(i), uint64(i)*7, bytes.Repeat([]byte{byte(i)}, 5+i))
		boundaries[len(buf)] = true
	}
	readAll := func(data []byte) (int, error) {
		sr := newSpillReader("corrupt", bytes.NewReader(data))
		n := 0
		for {
			_, _, _, err := sr.next()
			if err != nil {
				if err.Error() == "EOF" {
					return n, nil
				}
				return n, err
			}
			n++
		}
	}
	for cut := 0; cut <= len(buf); cut++ {
		n1, err1 := readAll(buf[:cut])
		n2, err2 := readAll(buf[:cut])
		if n1 != n2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("cut %d: nondeterministic read: (%d, %v) vs (%d, %v)", cut, n1, err1, n2, err2)
		}
		if boundaries[cut] {
			if err1 != nil {
				t.Fatalf("cut %d is a record boundary, want clean EOF, got %v", cut, err1)
			}
		} else if err1 == nil {
			t.Fatalf("cut %d severs a record, want a corruption error", cut)
		} else if !strings.Contains(err1.Error(), "offset") {
			t.Fatalf("cut %d: error must name the failing offset, got %v", cut, err1)
		}
	}
	// An absurd key length must fail before trying to allocate it.
	bad := appendSpillRecord(nil, 1, 2, nil)
	bad[12] = 0xFF
	bad[13] = 0xFF
	bad[14] = 0xFF
	bad[15] = 0x7F
	if _, err := readAll(bad); err == nil || !strings.Contains(err.Error(), "key length") {
		t.Fatalf("oversized key length must be rejected, got %v", err)
	}
}

// forceSpillJoin builds a probe table against a zero-row prototype of the
// left side under qm's tiny budget — the pipeline's build step — and returns
// it with the left batch; at least one partition is guaranteed spilled.
func forceSpillJoin(t *testing.T, qm *QueryMem) (*JoinProbe, *column.Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	left, right := spillJoinInputs(rng, 600, 900)
	jp, err := BuildProbeTable(context.Background(), left.Range(0, 0), right, []string{"lid"}, []string{"rid"}, &Pool{workers: 2, morsel: 61}, qm)
	if err != nil {
		t.Fatalf("BuildProbeTable: %v", err)
	}
	if !jp.Spilled() || jp.Stats().SpilledPartitions == 0 {
		t.Fatal("setup: no partition spilled under tiny budget")
	}
	return jp, left
}

// TestJoinProbeFailsDeterministicallyOnCorruptSpillFile drives the
// spilled-build breaker's probe step over truncated spill files: the batch
// probe must fail the same way every time, and closing the JoinProbe on
// that error path must return every reserved byte.
func TestJoinProbeFailsDeterministicallyOnCorruptSpillFile(t *testing.T) {
	qm := NewQueryMem(mem.New(tinyBudget), t.TempDir())
	defer qm.Cleanup()
	jp, left := forceSpillJoin(t, qm)
	jt := jp.jt
	// Truncate every spill file mid-record: the probe must fail with the
	// first (lowest-indexed) spilled partition's error, deterministically.
	dir, err := qm.spillDir()
	if err != nil {
		t.Fatal(err)
	}
	for pi, name := range jt.spillFiles {
		if !jt.spilled[pi] {
			continue
		}
		path := dir + "/" + name
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}
	_, err1 := jp.NewStage().ProbeBatch(context.Background(), left)
	if err1 == nil || !strings.Contains(err1.Error(), "spill") {
		t.Fatalf("probe over truncated spill files must fail with a spill error, got %v", err1)
	}
	_, err2 := jp.NewStage().ProbeBatch(context.Background(), left)
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("corruption error must be deterministic: %v vs %v", err1, err2)
	}
	jp.Close()
	if used := qm.Ledger().Used(); used != 0 {
		t.Fatalf("closed JoinProbe left %d bytes reserved after a failed probe", used)
	}
}

// TestSpillStopsOnCancel: the grace-hash join checks the query's ctx before
// each partition its build spills and before each spilled partition its
// probe rebuilds. A cancel in the build's third pass returns
// context.Canceled with no spill file written (every partition spills under
// the tiny budget, and the one worker runs them in order), and a probe
// under a cancelled ctx returns it before reading any. Either way every
// reserved byte goes back to the ledger.
func TestSpillStopsOnCancel(t *testing.T) {
	defer func() { buildTaskHook = func(int, int) {} }()
	root := t.TempDir()
	qm := NewQueryMem(mem.New(tinyBudget), root)
	defer qm.Cleanup()
	left, right := spillJoinInputs(rand.New(rand.NewSource(5)), 600, 900)
	ctx, cancel := context.WithCancel(context.Background())
	buildTaskHook = func(pass, _ int) {
		if pass == 3 {
			cancel()
		}
	}
	jp, err := BuildProbeTable(ctx, left.Range(0, 0), right, []string{"lid"}, []string{"rid"}, &Pool{workers: 1, morsel: 61}, qm)
	buildTaskHook = func(int, int) {}
	if !errors.Is(err, context.Canceled) || jp != nil {
		t.Fatalf("build cancelled in pass 3: %v, want %v", err, context.Canceled)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("the cancelled build wrote spill files: %v %v", entries, err)
	}
	if used := qm.Ledger().Used(); used != 0 {
		t.Fatalf("the cancelled build left %d bytes reserved", used)
	}

	jp, left = forceSpillJoin(t, qm)
	if _, err := jp.NewStage().ProbeBatch(ctx, left); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe under a cancelled ctx: %v, want %v", err, context.Canceled)
	}
	jp.Close()
	if used := qm.Ledger().Used(); used != 0 {
		t.Fatalf("closed JoinProbe left %d bytes reserved after a cancelled probe", used)
	}
}

func TestMidSpillFailureCleansUpSpillDir(t *testing.T) {
	root := t.TempDir()
	qm := NewQueryMem(mem.New(tinyBudget), root)
	qm.testFailAfterBytes = 64 // fail during (not before) spilling
	rng := rand.New(rand.NewSource(5))
	left, right := spillJoinInputs(rng, 600, 900)
	_, _, err := (&Pool{workers: 2, morsel: 61}).HashJoinMem(qm, left, right, []string{"lid"}, []string{"rid"})
	if err == nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("mid-spill failure must surface, got %v", err)
	}
	// The pipeline's spilled-build breaker takes the same failure at its
	// build step: no JoinProbe comes back, and the failed build has already
	// returned its partition reservations to the ledger.
	jp, err := BuildProbeTable(context.Background(), left.Range(0, 0), right, []string{"lid"}, []string{"rid"}, &Pool{workers: 2, morsel: 61}, qm)
	if err == nil || jp != nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("mid-spill failure must fail the probe-table build, got %v", err)
	}
	if used := qm.Ledger().Used(); used != 0 {
		t.Fatalf("failed builds left %d bytes reserved", used)
	}
	// The spill dir exists (spilling had started) until cleanup removes it.
	entries, rerr := os.ReadDir(root)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) == 0 {
		t.Fatal("setup: no spill dir was created before the failure")
	}
	if cerr := qm.Cleanup(); cerr != nil {
		t.Fatalf("Cleanup after error: %v", cerr)
	}
	entries, rerr = os.ReadDir(root)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir must be removed on the error path, found %d entries", len(entries))
	}
	// Cleanup is idempotent and later spills are refused.
	if cerr := qm.Cleanup(); cerr != nil {
		t.Fatalf("second Cleanup: %v", cerr)
	}
	if _, err := qm.newSpillWriter("late.spill"); err == nil {
		t.Fatal("spilling after Cleanup must fail")
	}
}

func TestLedgerReleasedAfterSpillJoin(t *testing.T) {
	l := mem.New(tinyBudget)
	qm := NewQueryMem(l, t.TempDir())
	defer qm.Cleanup()
	rng := rand.New(rand.NewSource(9))
	left, right := spillJoinInputs(rng, 800, 1200)
	if _, _, err := (&Pool{workers: 2, morsel: 61}).HashJoinMem(qm, left, right, []string{"ls"}, []string{"rs"}); err != nil {
		t.Fatal(err)
	}
	if got := l.Used(); got != 0 {
		t.Fatalf("ledger must be fully released after the join, used = %d", got)
	}
	if l.HighWater() == 0 {
		t.Fatal("high-water mark must record the join's working set")
	}
}

// TestSpillMillionRowAcceptance is the memory governor's acceptance
// scenario at full scale: a 1M-row join under a budget that forces
// spilling and a 1M-row high-cardinality GROUP BY whose group table
// outgrows it, bit-identical to the unbounded path at workers {1, 2, 8}.
// Skipped under -short.
func TestSpillMillionRowAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row spill acceptance is not a -short test")
	}
	const n = 1_000_000
	rng := rand.New(rand.NewSource(3))
	lkeys := make([]int64, n)
	lval := make([]float64, n)
	rkeys := make([]int64, n/10)
	rpay := make([]int64, n/10)
	for i := range lkeys {
		lkeys[i] = int64(i % len(rkeys))
		lval[i] = rng.NormFloat64()
	}
	for i := range rkeys {
		rkeys[i] = int64(i)
		rpay[i] = int64(i) * 3
	}
	left := column.MustNewBatch(column.NewInt64s("lk", lkeys), column.NewFloat64s("lv", lval))
	right := column.MustNewBatch(column.NewInt64s("rk", rkeys), column.NewInt64s("rp", rpay))
	gk := make([]int64, n)
	for i := range gk {
		gk[i] = rng.Int63n(50_000)
	}
	gb := column.MustNewBatch(column.NewInt64s("k", gk), column.NewFloat64s("v", lval))
	groupBy := []sql.Expr{&sql.ColumnRef{Name: "k"}}
	aggs := []AggSpec{
		{Func: "COUNT", Star: true, OutName: "n"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "v"}, OutName: "sv"},
	}

	joinOracle, _, err := (*Pool)(nil).HashJoinMem(nil, left, right, []string{"lk"}, []string{"rk"})
	if err != nil {
		t.Fatal(err)
	}
	aggOracle, err := Aggregate(gb, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		qm := NewQueryMem(mem.New(2<<20), t.TempDir())
		p := NewPool(workers)
		got, js, err := p.HashJoinMem(qm, left, right, []string{"lk"}, []string{"rk"})
		if err != nil {
			t.Fatalf("workers=%d: join: %v", workers, err)
		}
		if js.SpilledPartitions == 0 || js.SpilledBytes == 0 {
			t.Fatalf("workers=%d: 1M-row join must spill under 2MiB, stats = %+v", workers, js)
		}
		if diff, ok := bitIdenticalBatches(got, joinOracle); !ok {
			t.Fatalf("workers=%d: join not bit-identical: %s", workers, diff)
		}
		denied := qm.Ledger().Snapshot().Denials
		agot, err := pipeAggregate(p, qm, gb, groupBy, aggs)
		if err != nil {
			t.Fatalf("workers=%d: aggregate: %v", workers, err)
		}
		if qm.Ledger().Snapshot().Denials == denied {
			t.Fatalf("workers=%d: 1M-row GROUP BY must be denied reservations under 2MiB", workers)
		}
		if diff, ok := bitIdenticalBatches(agot, aggOracle); !ok {
			t.Fatalf("workers=%d: aggregate not bit-identical: %s", workers, diff)
		}
		if err := qm.Cleanup(); err != nil {
			t.Fatalf("workers=%d: cleanup: %v", workers, err)
		}
	}
}

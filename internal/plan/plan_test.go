package plan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/sql"
)

const q1 = `SELECT AVG(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000'`

func build(t *testing.T, q string, mode Mode) *Plans {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Build(stmt, catalog.MSEED(), mode)
	if err != nil {
		t.Fatalf("build (%v): %v", mode, err)
	}
	return p
}

// findNode returns the first node matching pred in a pre-order walk.
func findNode(n Node, pred func(Node) bool) Node {
	if pred(n) {
		return n
	}
	for _, c := range n.Children() {
		if f := findNode(c, pred); f != nil {
			return f
		}
	}
	return nil
}

func TestBuildLazyShape(t *testing.T) {
	p := build(t, q1, Lazy)

	le, ok := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
	if !ok || le == nil {
		t.Fatalf("no LazyExtract in lazy plan:\n%s", Render(p.Root))
	}
	// Data predicates (2 on D.sample_time) recorded on the extract node and
	// lifted into its sample window.
	if len(le.DataPreds) != 2 || le.Window == nil || len(le.Window.Preds) != 2 {
		t.Errorf("data preds = %d, window %+v; want 2, both lifted", len(le.DataPreds), le.Window)
	}
	// Metadata predicates pushed into the right scans: the 2 user conjuncts
	// per scan plus the 2 interval predicates derived from D.sample_time.
	fScan, _ := findNode(le.Meta, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableFiles
	}).(*Scan)
	if fScan == nil || len(fScan.Preds) != 4 {
		t.Fatalf("files scan preds: %+v\n%s", fScan, Render(p.Root))
	}
	rScan, _ := findNode(le.Meta, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableRecords
	}).(*Scan)
	if rScan == nil || len(rScan.Preds) != 4 {
		t.Fatalf("records scan preds: %+v", rScan)
	}
	// No scan of mseed.data anywhere in the lazy plan.
	if findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableData
	}) != nil {
		t.Errorf("lazy plan still scans mseed.data:\n%s", Render(p.Root))
	}
	// The naive plan does scan mseed.data and keeps the filter on top.
	if findNode(p.Naive, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableData
	}) == nil {
		t.Errorf("naive plan lacks data scan:\n%s", Render(p.Naive))
	}
}

func TestBuildEagerShape(t *testing.T) {
	p := build(t, q1, Eager)
	if findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }) != nil {
		t.Fatalf("eager plan contains LazyExtract:\n%s", Render(p.Root))
	}
	// Joins against the loaded data table, with metadata preds pushed down.
	dScan, _ := findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableData
	}).(*Scan)
	if dScan == nil {
		t.Fatalf("no data scan in eager plan:\n%s", Render(p.Root))
	}
	fScan, _ := findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Table == catalog.TableFiles
	}).(*Scan)
	if fScan == nil || len(fScan.Preds) != 2 {
		t.Errorf("files preds not pushed in eager plan:\n%s", Render(p.Root))
	}
}

func TestBuildExternalShape(t *testing.T) {
	p := build(t, q1, External)
	le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
	if le == nil {
		t.Fatalf("no LazyExtract in external plan:\n%s", Render(p.Root))
	}
	// External mode: no pruning — scans carry no predicates.
	if findNode(le.Meta, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && len(s.Preds) > 0
	}) != nil {
		t.Errorf("external plan pushed predicates into metadata scans:\n%s", Render(p.Root))
	}
	// All six conjuncts filter above the extraction.
	f, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*Filter); return ok }).(*Filter)
	if f == nil || len(f.Preds) != 6 {
		t.Errorf("external filter preds: %+v", f)
	}
}

func TestBuildMixedFRPredicate(t *testing.T) {
	// A predicate touching both F and R columns lands in a filter over the
	// metadata join, still below the extraction.
	q := `SELECT COUNT(*) FROM mseed.dataview WHERE F.start_time = R.start_time AND F.station = 'ISK'`
	p := build(t, q, Lazy)
	le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
	if le == nil {
		t.Fatal("no LazyExtract")
	}
	fr, _ := findNode(le.Meta, func(n Node) bool { _, ok := n.(*Filter); return ok }).(*Filter)
	if fr == nil || len(fr.Preds) != 1 || !strings.Contains(fr.Preds[0].String(), "F.start_time") {
		t.Errorf("mixed F/R predicate misplaced:\n%s", Render(p.Root))
	}
}

func TestBuildAggregateValidation(t *testing.T) {
	cat := catalog.MSEED()
	bad := []string{
		// Non-aggregate item not in GROUP BY.
		`SELECT F.station, MIN(D.sample_value) FROM mseed.dataview`,
		// SELECT * with aggregation.
		`SELECT * FROM mseed.dataview GROUP BY F.station`,
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Build(stmt, cat, Lazy); err == nil {
			t.Errorf("expected build error for %s", q)
		}
	}
}

func TestBuildUnknownTable(t *testing.T) {
	stmt, _ := sql.Parse(`SELECT x FROM nosuch`)
	if _, err := Build(stmt, catalog.MSEED(), Lazy); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestBuildDataTableVirtualInLazyAndExternal(t *testing.T) {
	stmt, _ := sql.Parse(`SELECT COUNT(*) FROM mseed.data`)
	for _, m := range []Mode{Lazy, External} {
		if _, err := Build(stmt, catalog.MSEED(), m); err == nil {
			t.Errorf("mseed.data scan should be rejected in %v mode", m)
		}
	}
	if _, err := Build(stmt, catalog.MSEED(), Eager); err != nil {
		t.Errorf("eager mode should allow it: %v", err)
	}
}

func TestBuildExplicitJoin(t *testing.T) {
	q := `SELECT F.uri, COUNT(*) FROM mseed.files F
	      JOIN mseed.records R ON F.file_id = R.file_id
	      WHERE F.network = 'NL' AND R.num_samples > 100
	      GROUP BY F.uri ORDER BY F.uri LIMIT 5`
	p := build(t, q, Lazy)
	j, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*Join); return ok }).(*Join)
	if j == nil || j.LKeys[0] != "F.file_id" || j.RKeys[0] != "R.file_id" {
		t.Fatalf("join keys: %+v\n%s", j, Render(p.Root))
	}
	// Predicates pushed to their scans.
	fScan, _ := findNode(p.Root, func(n Node) bool {
		s, ok := n.(*Scan)
		return ok && s.Prefix == "F."
	}).(*Scan)
	if fScan == nil || len(fScan.Preds) != 1 {
		t.Errorf("F preds: %+v", fScan)
	}
	// Upper stack: Limit over Sort over Project over Aggregate.
	if _, ok := p.Root.(*Limit); !ok {
		t.Errorf("root is %T, want Limit", p.Root)
	}
	if findNode(p.Root, func(n Node) bool { _, ok := n.(*Sort); return ok }) == nil {
		t.Error("no sort node")
	}
}

func TestBuildJoinWithoutEquiCondition(t *testing.T) {
	stmt, _ := sql.Parse(`SELECT F.uri FROM mseed.files F JOIN mseed.records R ON F.file_id > R.file_id`)
	if _, err := Build(stmt, catalog.MSEED(), Eager); err == nil {
		t.Error("non-equi join should be rejected")
	}
}

func TestBuildOrderByAliasAndAggregate(t *testing.T) {
	q := `SELECT F.station s, AVG(D.sample_value) AS m FROM mseed.dataview
	      WHERE F.network = 'NL' GROUP BY F.station ORDER BY m DESC`
	p := build(t, q, Lazy)
	srt, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*Sort); return ok }).(*Sort)
	if srt == nil {
		t.Fatal("no sort")
	}
	if srt.Keys[0].Expr.String() != "m" || !srt.Keys[0].Desc {
		t.Errorf("sort key: %+v", srt.Keys[0])
	}
}

func TestRenderPlans(t *testing.T) {
	p := build(t, q1, Lazy)
	opt := Render(p.Root)
	for _, want := range []string{"Aggregate", "LazyExtract", "HashJoin", "Scan mseed.files AS F", "Project"} {
		if !strings.Contains(opt, want) {
			t.Errorf("rendered plan lacks %q:\n%s", want, opt)
		}
	}
	// Indentation grows with depth.
	if !strings.Contains(opt, "\n  ") {
		t.Error("no indentation in rendered plan")
	}
}

func TestModeString(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" || External.String() != "external" {
		t.Error("mode names")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestBuildSelectStarDataview(t *testing.T) {
	q := `SELECT * FROM mseed.dataview WHERE F.station = 'ISK' LIMIT 10`
	p := build(t, q, Lazy)
	if _, ok := p.Root.(*Limit); !ok {
		t.Fatalf("root %T", p.Root)
	}
	// SELECT * must not introduce a Project node.
	if findNode(p.Root, func(n Node) bool { _, ok := n.(*Project); return ok }) != nil {
		t.Errorf("SELECT * should have no Project:\n%s", Render(p.Root))
	}
}

// extractCols builds q in mode and returns its LazyExtract's Cols.
func extractCols(t *testing.T, q string, mode Mode) []string {
	t.Helper()
	p := build(t, q, mode)
	le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
	if le == nil {
		t.Fatalf("no LazyExtract in %v plan:\n%s", mode, Render(p.Root))
	}
	return le.Cols
}

// TestBuildNarrowsLazyExtract checks the needed-column set Build records on
// the run-time rewrite site: exactly the dataview columns referenced above
// it, in canonical order; nil (full width) for a bare spine and for any
// reference that is not an exact dataview column; one carrier for a query
// that reads nothing.
func TestBuildNarrowsLazyExtract(t *testing.T) {
	cases := []struct {
		name, q string
		want    []string // nil = full width
	}{
		{"group key and filtered aggregate",
			`SELECT F.station, AVG(D.sample_value) FROM mseed.dataview WHERE D.sample_value > 0 GROUP BY F.station`,
			[]string{"F.station", "D.sample_value"}},
		{"count star keeps a carrier", `SELECT COUNT(*) FROM mseed.dataview`, []string{"F.file_id"}},
		{"canonical order, not reference order",
			`SELECT D.sample_value, R.num_samples * 2, F.network FROM mseed.dataview ORDER BY R.seqno`,
			[]string{"F.network", "R.num_samples", "D.sample_value"}},
		{"order by reads the projection, not the spine",
			`SELECT F.station AS s, COUNT(*) AS n FROM mseed.dataview GROUP BY F.station ORDER BY n DESC, s`,
			[]string{"F.station"}},
		{"select star", `SELECT * FROM mseed.dataview WHERE D.sample_value > 0`, nil},
		{"select star sorted and limited", `SELECT * FROM mseed.dataview ORDER BY D.sample_time LIMIT 3`, nil},
		{"unknown column under a dataview alias", `SELECT F.nosuch, D.sample_value FROM mseed.dataview`, nil},
		{"join key the view drops", `SELECT R.file_id FROM mseed.dataview`, nil},
		{"unqualified reference", `SELECT COUNT(*) FROM mseed.dataview WHERE sample_value > 0`, nil},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{Lazy, External} {
			got := extractCols(t, tc.q, mode)
			if (got == nil) != (tc.want == nil) || strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("%s (%v): Cols = %v, want %v", tc.name, mode, got, tc.want)
			}
		}
	}
	// Lazy mode runs metadata predicates below the extract, where they cost
	// no column; External mode filters above it and reads them there.
	metaQ := `SELECT MAX(D.sample_time) FROM mseed.dataview WHERE F.station = 'ISK' AND R.seqno < 5`
	if got := strings.Join(extractCols(t, metaQ, Lazy), ","); got != "D.sample_time" {
		t.Errorf("lazy-mode metadata predicates: Cols = %q", got)
	}
	if got := strings.Join(extractCols(t, metaQ, External), ","); got != "F.station,R.seqno,D.sample_time" {
		t.Errorf("external-mode metadata predicates: Cols = %q", got)
	}
}

// TestSpineNeedsUnderJoin covers the shape Build never emits but Execute
// accepts: the extract as the probe side of a join. The join's left keys
// are read from it; names under the build side's alias are not its to
// provide and do not force full width.
func TestSpineNeedsUnderJoin(t *testing.T) {
	le := &LazyExtract{Meta: &Scan{Table: catalog.TableFiles, Prefix: "F."}}
	root := &Project{
		Child: &Join{
			L: le, R: &Scan{Table: catalog.TableRecords, Prefix: "G."},
			LKeys: []string{"F.file_id", "R.seqno"}, RKeys: []string{"G.file_id", "G.seqno"},
		},
		Exprs: []sql.Expr{&sql.ColumnRef{Name: "G.num_samples"}, &sql.ColumnRef{Name: "D.sample_value"}},
		Names: []string{"G.num_samples", "D.sample_value"},
	}
	leaf, needed, narrow := spineNeeds(root)
	if leaf != Node(le) || !narrow {
		t.Fatalf("spineNeeds: leaf %T, narrow %v", leaf, narrow)
	}
	for _, name := range []string{"F.file_id", "R.seqno", "G.file_id", "G.seqno", "G.num_samples", "D.sample_value"} {
		if !needed[name] {
			t.Errorf("spineNeeds misses %s: %v", name, needed)
		}
	}
	narrowExtract(root, catalog.MSEED())
	if got := strings.Join(le.Cols, ","); got != "F.file_id,R.seqno,D.sample_value" {
		t.Errorf("Cols under a join = %q", got)
	}
	if got := Render(root); !strings.Contains(got, "(columns: F.file_id, R.seqno, D.sample_value)") {
		t.Errorf("plan display hides the narrowed list:\n%s", got)
	}
}

// TestExecuteRejectsUndecomposablePlans: Execute runs every plan as a push
// pipeline, and a spine that is not one — a filter above an aggregate, which
// Build never emits — is an error before any table is read.
func TestExecuteRejectsUndecomposablePlans(t *testing.T) {
	n := &Filter{Child: &Aggregate{Child: &Scan{Table: catalog.TableFiles}}}
	if _, err := Execute(n, &Env{}); err == nil || !strings.Contains(err.Error(), "does not decompose") {
		t.Fatalf("Execute: %v, want a decomposition error", err)
	}
}

// TestZoneAnswerEligibility: Build marks a LazyExtract zone-answerable only
// under an ungrouped aggregate of COUNT(*) and bare, non-DISTINCT
// D.sample_value COUNT/MIN/MAX/SUM/AVG, with every D.* conjunct folded into
// the prune range or the sample window, in Lazy mode.
func TestZoneAnswerEligibility(t *testing.T) {
	const from = ` FROM mseed.dataview WHERE F.station = 'ISK'`
	const win = ` AND D.sample_time >= '2010-01-12 00:00:00' AND D.sample_time < '2010-01-12 00:08:20'`
	cases := []struct {
		q    string
		mode Mode
		want string // the partial aggregates, "" for none
	}{
		{`SELECT COUNT(*)` + from, Lazy, "COUNT"},
		{`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*)` + from + win, Lazy, "COUNT, MIN, MAX, SUM"},
		{`SELECT MAX(D.sample_value), COUNT(D.sample_value)` + from + ` AND D.sample_value > 5 AND D.sample_value <> 7`, Lazy, "COUNT, MAX"},
		{`SELECT SUM(D.sample_value)` + from + ` ORDER BY SUM(D.sample_value) LIMIT 1`, Lazy, "SUM"},
		{`SELECT COUNT(*)` + from, Eager, ""},
		{`SELECT COUNT(*)` + from, External, ""},
		{`SELECT F.channel, COUNT(*)` + from + ` GROUP BY F.channel`, Lazy, ""},
		{`SELECT COUNT(DISTINCT D.sample_value)` + from, Lazy, ""},
		{`SELECT SUM(D.sample_value + 1)` + from, Lazy, ""},
		{`SELECT MIN(D.sample_time)` + from, Lazy, ""},
		{`SELECT MIN(R.seqno), COUNT(*)` + from, Lazy, ""},
		{`SELECT COUNT(*)` + from + ` AND (D.sample_value > 5 OR D.sample_value < -5)`, Lazy, ""},
		{`SELECT COUNT(*)` + from + ` AND D.sample_value * 2 > 5`, Lazy, ""},
		{`SELECT COUNT(*)` + from + ` AND (D.sample_time >= '2010-01-12 00:00:00' OR 1 = 0)`, Lazy, ""},
		{`SELECT D.sample_value` + from, Lazy, ""},
		{`SELECT COUNT(*) FROM mseed.files WHERE 1 = 1`, Lazy, ""},
	}
	for _, c := range cases {
		p := build(t, c.q, c.mode)
		le, _ := findNode(p.Root, func(n Node) bool { _, ok := n.(*LazyExtract); return ok }).(*LazyExtract)
		got := ""
		if le != nil {
			got = strings.Join(le.ZoneAnswer, ", ")
		}
		if got != c.want {
			t.Errorf("%v %s: zone answer %q, want %q\n%s", c.mode, c.q, got, c.want, Render(p.Root))
		}
		if le != nil && (got != "") != strings.Contains(le.Describe(), "(zone answer: "+got+")") {
			t.Errorf("%s: plan line %q does not show the zone answer", c.q, le.Describe())
		}
	}
}

// TestDrainRecoversAPanicInFinish: a sink whose Finish panics fails the
// pipeline with the recovered *exec.PanicError, as one whose Consume
// panics does, instead of taking the process down.
func TestDrainRecoversAPanicInFinish(t *testing.T) {
	r := &pipeRun{env: &Env{}}
	defer r.close()
	r.resume(column.MustNewBatch(column.NewInt64s("x", []int64{1, 2, 3})))
	_, err := r.drain(panicInFinish{exec.NewCollectSink(r.proto)}, "stage collect")
	var pe *exec.PanicError
	if !errors.As(err, &pe) || pe.Value != "in Finish" {
		t.Fatalf("drain: %v, want the recovered panic", err)
	}
}

type panicInFinish struct{ exec.PipeSink }

func (panicInFinish) Finish() (*column.Batch, error) { panic("in Finish") }

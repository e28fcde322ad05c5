package warehouse

import (
	"math"
	"strings"
	"testing"
)

// q1NoRecordPreds is Figure 1 Q1 with its explicit R.start_time conjuncts
// removed: record-level pruning must now come from the planner's derived
// interval predicates.
const q1NoRecordPreds = `SELECT AVG(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'ISK'
AND F.channel = 'BHE'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000'`

func TestDerivedPruningMatchesEagerAndExtractsLess(t *testing.T) {
	dir := genFullDayRepo(t)
	lazy := openWH(t, dir, Lazy)
	eager := openWH(t, dir, Eager)

	rl, err := lazy.Query(q1NoRecordPreds)
	if err != nil {
		t.Fatal(err)
	}
	re, err := eager.Query(q1NoRecordPreds)
	if err != nil {
		t.Fatal(err)
	}
	lv, ev := rl.Batch.Row(0)[0], re.Batch.Row(0)[0]
	if lv.Null || ev.Null || math.Abs(lv.F-ev.F) > 1e-9*math.Max(1, math.Abs(ev.F)) {
		t.Fatalf("answers differ: lazy=%v eager=%v", lv, ev)
	}

	// Only the one qualifying file is touched, and only the records whose
	// interval overlaps the 2-second window are extracted — not the whole
	// day of the file.
	if len(rl.Trace.TouchedFiles) != 1 {
		t.Fatalf("touched %v", rl.Trace.TouchedFiles)
	}
	extractions := 0
	for _, op := range rl.Trace.RuntimeOps() {
		if strings.HasPrefix(op, "ExtractRecord") {
			extractions++
		}
	}
	recordsInFile := lazy.Stats().RecordsRows / lazy.Stats().FilesRows
	if extractions == 0 || extractions > 2 {
		t.Errorf("extracted %d records; the 2 s window should need 1-2 of the file's %d records",
			extractions, recordsInFile)
	}
}

func TestDerivedPruningAgreesWithExplicitPredicates(t *testing.T) {
	dir := genFullDayRepo(t)
	w := openWH(t, dir, Lazy)
	implicit, err := w.Query(q1NoRecordPreds)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := w.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	iv, ev := implicit.Batch.Row(0)[0], explicit.Batch.Row(0)[0]
	if iv.F != ev.F {
		t.Errorf("derived pruning answer %v != explicit predicates answer %v", iv, ev)
	}
}

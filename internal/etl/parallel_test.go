package etl

import (
	"os"
	"strings"
	"testing"
)

// TestParallelExtractionMatchesSequential runs the same lazy query on a
// one-worker pool (one prefetch worker, runs decoded in order) and an
// eight-worker pool (eight) and requires identical aggregates and identical
// work accounting.
func TestParallelExtractionMatchesSequential(t *testing.T) {
	q := `SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value)
	      FROM mseed.dataview WHERE F.channel = 'BHZ' GROUP BY F.station ORDER BY F.station`

	seq, seqStore, _ := newEngine(t, 3000, Options{})
	if _, err := seq.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	par, parStore, _ := newEngine(t, 3000, Options{})
	if _, err := par.LoadMetadata(); err != nil {
		t.Fatal(err)
	}

	sRes := runLazyQueryAt(t, seq, seqStore, q, 1)
	pRes := runLazyQueryAt(t, par, parStore, q, 8)
	if sRes.String() != pRes.String() {
		t.Errorf("results differ:\nsequential:\n%v\nparallel:\n%v", sRes, pRes)
	}
	ss, ps := seq.ExtractionStats(), par.ExtractionStats()
	if ss.Extractions != ps.Extractions || ss.FilesTouched != ps.FilesTouched || ss.SamplesServed != ps.SamplesServed {
		t.Errorf("work accounting differs: sequential %+v, parallel %+v", ss, ps)
	}
	// Warm runs are all cache reads for both.
	runLazyQueryAt(t, par, parStore, q, 8)
	if got := par.ExtractionStats().Extractions; got != ps.Extractions {
		t.Errorf("warm parallel run extracted again: %d -> %d", ps.Extractions, got)
	}
}

// TestParallelExtractionPropagatesErrors removes one qualifying file after
// metadata load: every worker path must surface the failure.
func TestParallelExtractionPropagatesErrors(t *testing.T) {
	e, store, _ := newEngine(t, 800, Options{})
	if _, err := e.LoadMetadata(); err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, f := range listed(t, e) {
		if strings.Contains(f.URI, "BHZ") {
			victim = f.AbsPath
			break
		}
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	_, err := runQueryEnv(e, store, `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`, 4, 0, false)
	if err == nil {
		t.Fatal("expected error after removing a qualifying file")
	}
}

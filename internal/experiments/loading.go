package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/etl"
	"repro/internal/repo"
	"repro/internal/warehouse"
)

// q2Like is the selective analytical query used as the "first query" in the
// time-to-first-answer experiments (the paper's Figure 1 Q2).
const q2Like = `SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.network = 'NL' AND F.channel = 'BHZ'
GROUP BY F.station`

// qFixed is a first query with a size-independent working set (one
// station, one channel, one day): as the repository grows, the lazy path
// stays flat while the eager bootstrap keeps growing — the paper's
// headline shape.
const qFixed = `SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)
FROM mseed.dataview
WHERE F.station = 'HGN' AND F.channel = 'BHZ'
AND F.start_time >= '2010-01-12' AND F.start_time < '2010-01-13'
GROUP BY F.station`

// E1 measures time to first answer: initial load plus first analytical
// query, eager vs lazy, across repository sizes. This regenerates the
// demo's headline comparison (point 3): the lazy warehouse answers in a
// fraction of the eager bootstrap time because it loads only metadata and
// then touches only the files the query needs.
func E1(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	fmt.Fprintln(w, "E1: time to first answer (initial load + Figure-1-style query)")
	t := newTable(w, "files", "samples",
		"eager_load", "eager_query", "eager_total",
		"lazy_load", "lazy_query", "lazy_total", "speedup")
	for _, days := range cfg.Days {
		dir, err := genRepo(cfg, days, 0, "e1")
		if err != nil {
			return err
		}
		ew, eload, err := openTimed(dir, warehouse.Eager, etl.Options{})
		if err != nil {
			return err
		}
		_, equery, err := queryTimed(ew, qFixed)
		if err != nil {
			return err
		}
		lw, lload, err := openTimed(dir, warehouse.Lazy, etl.Options{})
		if err != nil {
			return err
		}
		_, lquery, err := queryTimed(lw, qFixed)
		if err != nil {
			return err
		}
		etotal, ltotal := eload+equery, lload+lquery
		ist := ew.InitStats()
		t.addRow(
			fmt.Sprintf("%d", ist.Files),
			fmt.Sprintf("%d", ist.Samples),
			ms(eload), ms(equery), ms(etotal),
			ms(lload), ms(lquery), ms(ltotal),
			fmt.Sprintf("%.1fx", float64(etotal)/float64(ltotal)),
		)
	}
	t.flush()
	fmt.Fprintln(w, "shape check: lazy_total << eager_total, gap widens with repository size")
	return nil
}

// E2 isolates initial loading: duration, bytes read from the repository and
// rows materialized, per mode, versus repository size. Lazy parses only the
// 64-byte record headers, and reports those bytes; eager reads and decodes
// every payload.
func E2(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	fmt.Fprintln(w, "E2: initial loading cost vs repository size")
	t := newTable(w, "files", "repo_size",
		"eager_time", "eager_read", "eager_rows",
		"lazy_time", "lazy_read", "lazy_rows", "read_ratio")
	for _, days := range cfg.Days {
		dir, err := genRepo(cfg, days, 0, "e2")
		if err != nil {
			return err
		}
		ew, _, err := openTimed(dir, warehouse.Eager, etl.Options{})
		if err != nil {
			return err
		}
		lw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{})
		if err != nil {
			return err
		}
		ei, li := ew.InitStats(), lw.InitStats()
		eagerRows := int64(ew.Stats().FilesRows+ew.Stats().RecordsRows) + int64(ew.Stats().DataRows)
		lazyRows := int64(lw.Stats().FilesRows + lw.Stats().RecordsRows)
		t.addRow(
			fmt.Sprintf("%d", ei.Files),
			mb(ei.RepoBytes),
			ms(ei.Duration), mb(ei.BytesRead), fmt.Sprintf("%d", eagerRows),
			ms(li.Duration), mb(li.BytesRead), fmt.Sprintf("%d", lazyRows),
			fmt.Sprintf("%.1fx", float64(ei.BytesRead)/float64(li.BytesRead)),
		)
	}
	t.flush()
	fmt.Fprintln(w, "shape check: lazy bytes-read and rows stay metadata-sized; eager grows with data volume")
	return nil
}

// E3 measures storage: on-disk repository size versus the in-memory eager
// warehouse versus the lazy warehouse (metadata tables plus the cache after
// one query). The paper (§4) reports that loading a SEED repository into a
// database takes up to 10x the original storage, because Steim-compressed
// samples become full-width (time,value) tuples.
func E3(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	fmt.Fprintln(w, "E3: storage footprint (repository vs warehouse)")
	t := newTable(w, "files", "repo_disk",
		"eager_store", "blowup",
		"lazy_store", "lazy_cache_after_q", "lazy_total", "vs_repo")
	for _, days := range cfg.Days {
		dir, err := genRepo(cfg, days, 0, "e3")
		if err != nil {
			return err
		}
		ew, _, err := openTimed(dir, warehouse.Eager, etl.Options{})
		if err != nil {
			return err
		}
		lw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{})
		if err != nil {
			return err
		}
		if _, err := lw.Query(q2Like); err != nil {
			return err
		}
		ei := ew.InitStats()
		eagerStore := ew.Stats().StoreBytes
		lazyStore := lw.InitStats().StoreBytes
		lazyCache := lw.Stats().CacheBytes
		t.addRow(
			fmt.Sprintf("%d", ei.Files),
			mb(ei.RepoBytes),
			mb(eagerStore),
			fmt.Sprintf("%.1fx", float64(eagerStore)/float64(ei.RepoBytes)),
			mb(lazyStore), mb(lazyCache), mb(lazyStore+lazyCache),
			fmt.Sprintf("%.2fx", float64(lazyStore+lazyCache)/float64(ei.RepoBytes)),
		)
	}
	t.flush()
	fmt.Fprintln(w, "shape check: eager blowup is several-fold (paper: up to 10x); lazy stays well below the repo size")
	return nil
}

// E6 measures refresh after repository updates: k of N files are modified;
// the lazy warehouse re-extracts only the stale records at the next query,
// while the eager warehouse re-runs its full load (the traditional refresh).
func E6(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	fmt.Fprintln(w, "E6: refresh cost after updating k of N files")
	days := cfg.Days[len(cfg.Days)-1]
	t := newTable(w, "updated_files", "lazy_requery", "lazy_invalidations", "lazy_extractions", "eager_reload")

	scan := `SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview WHERE F.channel = 'BHZ'`

	fracs := []float64{0, 0.1, 0.3, 1.0}
	for _, frac := range fracs {
		// Fresh copies per fraction so updates do not accumulate.
		dir, err := genRepo(cfg, days, 0, fmt.Sprintf("e6-%d", int(frac*100)))
		if err != nil {
			return err
		}
		lw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{})
		if err != nil {
			return err
		}
		ew, _, err := openTimed(dir, warehouse.Eager, etl.Options{})
		if err != nil {
			return err
		}
		// Warm the lazy cache over the full working set of the query.
		if _, err := lw.Query(scan); err != nil {
			return err
		}
		// Update k files inside the query's working set (BHZ channels), so
		// staleness is visible to the re-query. Touching advances the mtime;
		// content regeneration is not needed to measure refresh mechanics.
		rp, err := repo.Open(dir)
		if err != nil {
			return err
		}
		var working []repo.File
		for _, f := range rp.Files {
			if strings.Contains(f.URI, "BHZ") {
				working = append(working, f)
			}
		}
		k := int(frac * float64(len(working)))
		for i := 0; i < k; i++ {
			if err := repo.Touch(working[i].AbsPath, working[i].ModTime.Add(3600e9)); err != nil {
				return err
			}
		}
		lw.Engine().Cache().ResetStats()
		x0 := lw.Engine().ExtractionStats().Extractions
		_, lq, err := queryTimed(lw, scan)
		if err != nil {
			return err
		}
		cs := lw.Engine().Cache().Stats()
		x1 := lw.Engine().ExtractionStats().Extractions

		// Eager refresh: full reload.
		st, err := ew.Refresh()
		if err != nil {
			return err
		}
		t.addRow(
			fmt.Sprintf("%d/%d", k, len(working)),
			ms(lq),
			fmt.Sprintf("%d", cs.Invalidations),
			fmt.Sprintf("%d", x1-x0),
			ms(st.Duration),
		)
	}
	t.flush()
	fmt.Fprintln(w, "shape check: lazy re-query cost scales with the stale fraction; eager reload pays the full extraction once any file changed, and nothing when none did")
	return nil
}

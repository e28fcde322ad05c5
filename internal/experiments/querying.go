package experiments

import (
	"fmt"
	"io"

	"repro/internal/etl"
	"repro/internal/plan"
	"repro/internal/warehouse"
)

// E4 demonstrates lazy loading (§3.3): the first query extracts from files
// (cold); repeats, which bypass the result cache, hit the recycler (warm);
// a byte budget forces evictions from the recycler's 2Q segments (E4b's
// hit-rate curve); and the extraction granularity
// ablation (record vs whole-file prefetch) trades extra decode work on the
// first query for fewer file opens later.
func E4(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	days := cfg.Days[len(cfg.Days)-1]
	dir, err := genRepo(cfg, days, 0, "e4")
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "E4a: query sequence, cold cache then warm cache")
	lw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{})
	if err != nil {
		return err
	}
	t := newTable(w, "run", "latency", "cache_reads", "extractions", "files_opened")
	for run := 1; run <= 5; run++ {
		res, d, err := queryUncachedTimed(lw, q2Like)
		if err != nil {
			return err
		}
		var hits, extracts int
		for _, r := range res.Trace.Runs {
			if r.Kind == plan.CacheRead {
				hits += len(r.Seqs)
			} else {
				extracts += len(r.Seqs)
			}
		}
		t.addRow(fmt.Sprintf("%d", run), ms(d),
			fmt.Sprintf("%d", hits), fmt.Sprintf("%d", extracts),
			fmt.Sprintf("%d", len(res.Trace.TouchedFiles)))
	}
	t.flush()
	fmt.Fprintln(w, "shape check: run 1 extracts everything; runs 2+ are all cache reads and much faster")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "E4b: cache budget sweep (same query, repeated twice per budget)")
	t = newTable(w, "budget", "warm_latency", "hit_rate", "evictions")
	for _, budget := range []int64{64 << 10, 512 << 10, 4 << 20, 64 << 20} {
		bw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{CacheBudget: budget})
		if err != nil {
			return err
		}
		if _, err := bw.Query(q2Like); err != nil {
			return err
		}
		bw.Engine().Cache().ResetStats()
		_, d, err := queryUncachedTimed(bw, q2Like)
		if err != nil {
			return err
		}
		cs := bw.Engine().Cache().Stats()
		total := cs.Hits + cs.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(cs.Hits) / float64(total)
		}
		t.addRow(mb(budget), ms(d), fmt.Sprintf("%.0f%%", 100*rate), fmt.Sprintf("%d", cs.Evictions))
	}
	t.flush()
	fmt.Fprintln(w, "shape check: hit rate climbs to 100% once the recycler's probation, a quarter of the budget, holds the working set;")
	fmt.Fprintln(w, "a budget that holds it only whole hits part of it here and all of it from the next repeat on, through the ghost ring")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "E4c: extraction granularity ablation (record vs whole-file prefetch)")
	t = newTable(w, "granularity", "first_query", "cache_entries_after", "extractions")
	narrow := `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE' AND R.seqno = 1`
	for _, pre := range []bool{false, true} {
		gw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{PrefetchWholeFile: pre})
		if err != nil {
			return err
		}
		_, d, err := queryTimed(gw, narrow)
		if err != nil {
			return err
		}
		name := "per-record"
		if pre {
			name = "whole-file"
		}
		t.addRow(name, ms(d),
			fmt.Sprintf("%d", gw.Engine().Cache().Len()),
			fmt.Sprintf("%d", gw.Engine().ExtractionStats().Extractions))
	}
	t.flush()
	fmt.Fprintln(w, "shape check: whole-file prefetch over-extracts on a narrow query but fills the cache for neighbours")
	return nil
}

// selectivityQueries returns queries from most selective to full scan,
// with the number of files each should touch for a 5-station x 3-channel
// x days repository.
func selectivityQueries(days int) []struct {
	Name  string
	Query string
	Files int
} {
	return []struct {
		Name  string
		Query string
		Files int
	}{
		{
			Name: "1 station+channel+day",
			Query: `SELECT COUNT(*) FROM mseed.dataview
			        WHERE F.station = 'ISK' AND F.channel = 'BHE'
			        AND F.start_time >= '2010-01-12' AND F.start_time < '2010-01-13'`,
			Files: 1,
		},
		{
			Name:  "1 station+channel",
			Query: `SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'`,
			Files: days,
		},
		{
			Name:  "1 channel",
			Query: `SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'`,
			Files: 5 * days,
		},
		{
			Name:  "all files",
			Query: `SELECT COUNT(*) FROM mseed.dataview`,
			Files: 15 * days,
		},
	}
}

// E5 sweeps selectivity: as the metadata predicates match more files, lazy
// query time grows toward the eager full-load cost — §3.1's "in the worst
// case, the required subset is the entire repository".
func E5(w io.Writer, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	days := cfg.Days[len(cfg.Days)-1]
	dir, err := genRepo(cfg, days, 0, "e5")
	if err != nil {
		return err
	}
	ew, eload, err := openTimed(dir, warehouse.Eager, etl.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "E5: lazy query time vs selectivity (cold cache each point)")
	t := newTable(w, "predicate", "files_touched", "lazy_cold", "eager_query", "eager_load(amortized)")
	for _, sq := range selectivityQueries(days) {
		lw, _, err := openTimed(dir, warehouse.Lazy, etl.Options{})
		if err != nil {
			return err
		}
		res, ld, err := queryTimed(lw, sq.Query)
		if err != nil {
			return err
		}
		if got := len(res.Trace.TouchedFiles); got != sq.Files {
			fmt.Fprintf(w, "  note: %q touched %d files, expected %d\n", sq.Name, got, sq.Files)
		}
		_, ed, err := queryTimed(ew, sq.Query)
		if err != nil {
			return err
		}
		t.addRow(sq.Name, fmt.Sprintf("%d", len(res.Trace.TouchedFiles)), ms(ld), ms(ed), ms(eload))
	}
	t.flush()
	fmt.Fprintln(w, "shape check: lazy wins at low selectivity; at 100% it converges toward the eager load cost")
	return nil
}

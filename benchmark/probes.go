package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/etl"
	"repro/internal/mseed"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/sql"
)

// probeReps is how often a probe repeats its call; it reports the median.
const probeReps = 3

// timeMedian runs f probeReps times and returns the median duration.
func timeMedian(f func() error) (time.Duration, error) {
	var secs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return time.Duration(median(secs) * float64(time.Second)), nil
}

// probes times each layer's public entry points directly on the fixture
// (the P metrics) and the two hardware rooflines they are printed beside.
// The page cache is warm: hw.seq_read_mb_s is the sandbox's re-read rate,
// not a device's.
func probes(fx *fixture) (map[string]float64, error) {
	out := map[string]float64{}

	// repo: walk + stat of the fleet.
	d, err := timeMedian(func() error { _, err := repo.Open(fx.dir); return err })
	if err != nil {
		return nil, err
	}
	out["repo.open_ms"] = ms(d)

	// hw: sequential re-read of the fleet, and memmove.
	var paths []string
	for _, fd := range fx.files {
		paths = append(paths, filepath.Join(fx.dir, fd.uri))
	}
	d, err = timeMedian(func() error {
		for _, p := range paths {
			if _, err := os.ReadFile(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["hw.seq_read_mb_s"] = float64(fx.repoBytes) / 1e6 / d.Seconds()
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	copy(dst, src) // fault the pages in
	d, _ = timeMedian(func() error { copy(dst, src); return nil })
	out["hw.memmove_gb_s"] = float64(len(src)) / 1e9 / d.Seconds()

	// mseed: header scan of the fleet, Steim2 decode of one file-day.
	d, err = timeMedian(func() error {
		for _, p := range paths {
			if _, err := mseed.ScanFile(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["mseed.scan_headers_krecords_s"] = float64(fx.records) / 1e3 / d.Seconds()

	data, err := os.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	infos, err := mseed.ScanBuffer(data)
	if err != nil {
		return nil, err
	}
	buf := make([]int32, 0, 4096)
	const decodePasses = 20
	d, err = timeMedian(func() error {
		for pass := 0; pass < decodePasses; pass++ {
			for _, ri := range infos {
				h := ri.Header
				rec := data[ri.Offset : ri.Offset+int64(h.RecordLength)]
				if err := mseed.DecodePayloadInto(h, rec[h.DataOffset:], buf[:h.NumSamples]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decodeRate := float64(decodePasses*len(fx.files[0].samples)) / d.Seconds()
	out["mseed.steim2_decode_msamples_s"] = decodeRate / 1e6
	// memmove-equivalent samples/s (4 bytes a sample) over what decode achieves.
	out["mseed.decode_gap_x"] = out["hw.memmove_gb_s"] * 1e9 / 4 / decodeRate

	// etl: metadata-only load of the fleet, eager load of the day-0 slice,
	// cold extraction of the warm set.
	var store *catalog.Store
	var eng *etl.Engine
	d, err = timeMedian(func() error {
		rp, err := repo.Open(fx.dir)
		if err != nil {
			return err
		}
		store = catalog.NewStore(catalog.MSEED())
		eng = etl.New(rp, store, etl.Options{DisableCache: true})
		_, err = eng.LoadMetadata()
		return err
	})
	if err != nil {
		return nil, err
	}
	out["etl.load_metadata_ms"] = ms(d)
	out["catalog.lazy_store_per_repo_byte"] = float64(store.Bytes()) / float64(fx.repoBytes)

	meta, err := warmMeta(fx, store)
	if err != nil {
		return nil, err
	}
	var rows int
	d, err = timeMedian(func() error {
		b, err := eng.Extract(meta, nil, plan.NopObserver{})
		if err == nil {
			rows = b.NumRows()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["etl.extract_cold_msamples_s"] = float64(rows) / 1e6 / d.Seconds()

	rp0, err := repo.Open(fx.day0Dir)
	if err != nil {
		return nil, err
	}
	store0 := catalog.NewStore(catalog.MSEED())
	st, err := etl.New(rp0, store0, etl.Options{}).LoadAll()
	if err != nil {
		return nil, err
	}
	out["etl.load_all_msamples_s"] = float64(st.Samples) / 1e6 / st.Duration.Seconds()
	out["catalog.eager_store_per_repo_byte"] = float64(store0.Bytes()) / float64(rp0.TotalSize())

	// sql, plan: normalize, parse and build over the six class templates.
	var texts []string
	for c := classPoint; c <= classFetch; c++ {
		texts = append(texts, classTemplate(fx, c))
	}
	const frontPasses = 200
	var stmts []*sql.SelectStmt
	d, err = timeMedian(func() error {
		for pass := 0; pass < frontPasses; pass++ {
			for _, t := range texts {
				if _, err := sql.Normalize(t); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	perStmt := float64(frontPasses * len(texts))
	out["sql.normalize_ns"] = float64(d) / perStmt
	d, err = timeMedian(func() error {
		stmts = stmts[:0]
		for pass := 0; pass < frontPasses; pass++ {
			for _, t := range texts {
				s, err := sql.Parse(t)
				if err != nil {
					return err
				}
				if pass == 0 {
					stmts = append(stmts, s)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["sql.parse_ns"] = float64(d) / perStmt
	d, err = timeMedian(func() error {
		for pass := 0; pass < frontPasses; pass++ {
			for _, s := range stmts {
				if _, err := plan.Build(s, store.Catalog(), plan.Lazy); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["plan.build_ns"] = float64(d) / perStmt
	return out, nil
}

// classTemplate is one concrete statement of a warm_serve class; the point
// statement has its markers filled in so sql.Parse accepts it.
func classTemplate(fx *fixture, c class) string {
	if c == classPoint {
		return strings.NewReplacer("F.station = ?", "F.station = 'HGN'", "F.channel = ?", "F.channel = 'BHZ'", "R.seqno = ?", "R.seqno = 17").Replace(pointSQL)
	}
	return fx.warmQuery(c, rand.New(rand.NewSource(int64(c)))).sql
}

// warmMeta builds the extraction-metadata batch (what the planner's
// metadata phase hands to Extract) covering every record of the warm set.
func warmMeta(fx *fixture, store *catalog.Store) (*column.Batch, error) {
	warm := map[string]bool{}
	for _, st := range fx.warm() {
		for _, fd := range fx.series[seriesKey(st.Code, "BHZ")] {
			warm[fd.uri] = true
		}
	}
	fb, err := store.Table(catalog.TableFiles)
	if err != nil {
		return nil, err
	}
	fids, _ := fb.Col("file_id")
	furis, _ := fb.Col("uri")
	flens, _ := fb.Col("record_length")
	uriByID, lenByID := map[int64]string{}, map[int64]int64{}
	for i := 0; i < fb.NumRows(); i++ {
		if uri := furis.Strings()[i]; warm[uri] {
			uriByID[fids.Int64s()[i]] = uri
			lenByID[fids.Int64s()[i]] = flens.Int64s()[i]
		}
	}
	rb, err := store.Table(catalog.TableRecords)
	if err != nil {
		return nil, err
	}
	rids, _ := rb.Col("file_id")
	seqs, _ := rb.Col("seqno")
	offs, _ := rb.Col("file_offset")
	nums, _ := rb.Col("num_samples")
	var uris []string
	var recLens, seq, off, num []int64
	for i := 0; i < rb.NumRows(); i++ {
		id := rids.Int64s()[i]
		if uri, ok := uriByID[id]; ok {
			uris = append(uris, uri)
			recLens = append(recLens, lenByID[id])
			seq = append(seq, seqs.Int64s()[i])
			off = append(off, offs.Int64s()[i])
			num = append(num, nums.Int64s()[i])
		}
	}
	return column.NewBatch(
		column.NewStrings("F.uri", uris),
		column.NewInt64s("F.record_length", recLens),
		column.NewInt64s("R.seqno", seq),
		column.NewInt64s("R.file_offset", off),
		column.NewInt64s("R.num_samples", num),
	)
}

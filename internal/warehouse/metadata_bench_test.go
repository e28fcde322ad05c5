package warehouse

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Synthetic metadata laid out as the loaders lay it out: files in
// repository (path) order — series by series, a series' days in order — as
// file_id, each file's records appended in seqno order. Six stations by
// three channels, one file per series per day, metaRecords records of
// metaRecordDur each.
const (
	metaRecords   = 155
	metaRecordDur = 12800 * time.Millisecond // 256 samples at 20 Hz
)

var (
	metaStations = []string{"ST0", "ST1", "ST2", "ST3", "ST4", "ST5"}
	metaChannels = []string{"BHZ", "BHN", "BHE"}
	metaDay0     = time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
)

// syntheticMetaStore installs nfiles files and metaRecords records per file
// (nfiles a multiple of 18) through Store.Replace, as a load does.
func syntheticMetaStore(tb testing.TB, nfiles int) *catalog.Store {
	tb.Helper()
	cat := catalog.MSEED()
	files := make(map[string][]column.Value)
	records := make(map[string][]column.Value)
	add := func(m map[string][]column.Value, name string, v column.Value) { m[name] = append(m[name], v) }
	days := nfiles / (len(metaStations) * len(metaChannels))
	for id := 0; id < nfiles; id++ {
		series, day := id/days, id%days
		st := metaStations[series/len(metaChannels)]
		ch := metaChannels[series%len(metaChannels)]
		start := metaDay0.AddDate(0, 0, day).UnixNano()
		end := start + metaRecords*int64(metaRecordDur)
		for _, kv := range []struct {
			name string
			v    column.Value
		}{
			{"file_id", column.NewInt64(int64(id))},
			{"uri", column.NewString(fmt.Sprintf("NL/%s/%s/%d.mseed", st, ch, day))},
			{"network", column.NewString("NL")},
			{"station", column.NewString(st)},
			{"location", column.NewString("")},
			{"channel", column.NewString(ch)},
			{"quality", column.NewString("D")},
			{"encoding", column.NewString("STEIM2")},
			{"record_length", column.NewInt64(4096)},
			{"sample_rate", column.NewFloat64(20)},
			{"start_time", column.NewTimestamp(start)},
			{"end_time", column.NewTimestamp(end)},
			{"num_records", column.NewInt64(metaRecords)},
			{"num_samples", column.NewInt64(metaRecords * 256)},
			{"file_size", column.NewInt64(metaRecords * 4096)},
			{"mod_time", column.NewTimestamp(start)},
		} {
			add(files, kv.name, kv.v)
		}
		for seq := 0; seq < metaRecords; seq++ {
			rs := start + int64(seq)*int64(metaRecordDur)
			add(records, "file_id", column.NewInt64(int64(id)))
			add(records, "seqno", column.NewInt64(int64(seq+1)))
			add(records, "start_time", column.NewTimestamp(rs))
			add(records, "end_time", column.NewTimestamp(rs+int64(metaRecordDur)))
			add(records, "sample_rate", column.NewFloat64(20))
			add(records, "num_samples", column.NewInt64(256))
			add(records, "file_offset", column.NewInt64(int64(seq)*4096))
		}
	}
	store := catalog.NewStore(cat)
	for table, vals := range map[string]map[string][]column.Value{catalog.TableFiles: files, catalog.TableRecords: records} {
		def, _ := cat.Table(table)
		cols := make([]*column.Column, len(def.Columns))
		for i, cd := range def.Columns {
			cols[i] = column.New(cd.Name, cd.Type)
			for _, v := range vals[cd.Name] {
				if err := cols[i].AppendValue(v); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := store.Replace(table, column.MustNewBatch(cols...)); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// metaSubplan builds the agg workload's statement — AVG/MIN/MAX/COUNT of one
// series over a 500 s window inside one file — and returns the metadata
// sub-plan of its LazyExtract.
func metaSubplan(tb testing.TB, cat *catalog.Catalog, station string, day int) plan.Node {
	tb.Helper()
	t0 := metaDay0.AddDate(0, 0, day).Add(10 * time.Minute)
	q := fmt.Sprintf(`SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*) FROM mseed.dataview
		WHERE F.station = '%s' AND F.channel = 'BHZ' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, t0.Format("2006-01-02T15:04:05"), t0.Add(500*time.Second).Format("2006-01-02T15:04:05"))
	stmt, err := sql.Parse(q)
	if err != nil {
		tb.Fatal(err)
	}
	plans, err := plan.Build(stmt, cat, plan.Lazy)
	if err != nil {
		tb.Fatal(err)
	}
	var meta plan.Node
	var find func(plan.Node)
	find = func(n plan.Node) {
		if le, ok := n.(*plan.LazyExtract); ok {
			meta = le.Meta
			return
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(plans.Root)
	if meta == nil {
		tb.Fatal("the agg statement has no LazyExtract")
	}
	return meta
}

// BenchmarkMetadataPhase runs the agg workload's metadata sub-plan — the
// F/R predicates and the files ⋈ records join that pick the records to
// extract — over 54 and 540 synthetic files of metaRecords records each.
// One file qualifies at either size, so what grows with the repository is
// what the join spends on records no query asked for.
func BenchmarkMetadataPhase(b *testing.B) {
	for _, nfiles := range []int{54, 540} {
		b.Run(fmt.Sprintf("files=%d", nfiles), func(b *testing.B) {
			store := syntheticMetaStore(b, nfiles)
			days := nfiles / (len(metaStations) * len(metaChannels))
			meta := metaSubplan(b, store.Catalog(), metaStations[2], days-1)
			env := &plan.Env{Store: store.Snapshot(), Pool: exec.NewPool(runtime.GOMAXPROCS(0))}
			want := int(500*time.Second/metaRecordDur) + 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := plan.Execute(meta, env)
				if err != nil {
					b.Fatal(err)
				}
				if n := out.NumRows(); n < want-1 || n > want+1 {
					b.Fatalf("%d qualifying records, want about %d", n, want)
				}
			}
		})
	}
}

package catalog

import "repro/internal/column"

// Fully qualified names of the mSEED warehouse schema objects.
const (
	TableFiles   = "mseed.files"
	TableRecords = "mseed.records"
	TableData    = "mseed.data"
	ViewDataview = "mseed.dataview"
)

// FilesColumns is the per-file metadata table (alias F). One row per mSEED
// file; everything here is obtainable from a header-only scan plus a stat.
var FilesColumns = []ColumnDef{
	{Name: "file_id", Type: column.Int64},
	{Name: "uri", Type: column.String},
	{Name: "network", Type: column.String},
	{Name: "station", Type: column.String},
	{Name: "location", Type: column.String},
	{Name: "channel", Type: column.String},
	{Name: "quality", Type: column.String},
	{Name: "encoding", Type: column.String},
	{Name: "record_length", Type: column.Int64},
	{Name: "sample_rate", Type: column.Float64},
	{Name: "start_time", Type: column.Timestamp},
	{Name: "end_time", Type: column.Timestamp},
	{Name: "num_records", Type: column.Int64},
	{Name: "num_samples", Type: column.Int64},
	{Name: "file_size", Type: column.Int64},
	{Name: "mod_time", Type: column.Timestamp},
}

// RecordsColumns is the per-record metadata table (alias R). One row per
// mSEED record; identified by (file_id, seqno).
var RecordsColumns = []ColumnDef{
	{Name: "file_id", Type: column.Int64},
	{Name: "seqno", Type: column.Int64},
	{Name: "start_time", Type: column.Timestamp},
	{Name: "end_time", Type: column.Timestamp},
	{Name: "sample_rate", Type: column.Float64},
	{Name: "num_samples", Type: column.Int64},
	{Name: "file_offset", Type: column.Int64},
}

// DataColumns is the actual-data table (alias D). One row per sample; in
// lazy mode this table is virtual — rows only exist in the recycler cache.
var DataColumns = []ColumnDef{
	{Name: "file_id", Type: column.Int64},
	{Name: "seqno", Type: column.Int64},
	{Name: "sample_time", Type: column.Timestamp},
	{Name: "sample_value", Type: column.Float64},
}

// DataviewSQL is the displayed definition of the universal-table view; the
// planner expands it structurally.
const DataviewSQL = `SELECT F.*, R.seqno, R.start_time, R.end_time, ` +
	`R.sample_rate, R.num_samples, R.file_offset, D.sample_time, D.sample_value ` +
	`FROM mseed.files F ` +
	`JOIN mseed.records R ON F.file_id = R.file_id ` +
	`JOIN mseed.data D ON R.file_id = D.file_id AND R.seqno = D.seqno`

// DataviewColumns lists the output columns of mseed.dataview. Column names
// carry their source-table alias prefix (F., R., D.) exactly as the
// paper's queries reference them. The list is built once and shared:
// callers must not modify it.
func DataviewColumns() []ColumnDef { return dataviewColumns }

var dataviewColumns = dataview()

func dataview() []ColumnDef {
	var out []ColumnDef
	for _, c := range FilesColumns {
		out = append(out, ColumnDef{Name: "F." + c.Name, Type: c.Type})
	}
	for _, c := range RecordsColumns {
		if c.Name == "file_id" {
			continue // already present as F.file_id (join key)
		}
		out = append(out, ColumnDef{Name: "R." + c.Name, Type: c.Type})
	}
	for _, c := range DataColumns {
		if c.Name == "file_id" || c.Name == "seqno" {
			continue
		}
		out = append(out, ColumnDef{Name: "D." + c.Name, Type: c.Type})
	}
	return out[:len(out):len(out)]
}

// MSEED builds the full mSEED warehouse catalog.
func MSEED() *Catalog {
	c := New()
	must := func(err error) {
		if err != nil {
			panic(err) // static schema; only reachable through a code bug
		}
	}
	must(c.AddTable(&TableDef{
		Name:       TableFiles,
		Columns:    FilesColumns,
		PrimaryKey: []string{"file_id"},
	}))
	must(c.AddTable(&TableDef{
		Name:       TableRecords,
		Columns:    RecordsColumns,
		PrimaryKey: []string{"file_id", "seqno"},
		ForeignKeys: []ForeignKey{{
			Columns: []string{"file_id"}, RefTable: TableFiles, RefColumns: []string{"file_id"},
		}},
	}))
	must(c.AddTable(&TableDef{
		Name:    TableData,
		Columns: DataColumns,
		ForeignKeys: []ForeignKey{{
			Columns:  []string{"file_id", "seqno"},
			RefTable: TableRecords, RefColumns: []string{"file_id", "seqno"},
		}},
	}))
	must(c.AddView(&ViewDef{
		Name:    ViewDataview,
		SQL:     DataviewSQL,
		Columns: DataviewColumns(),
	}))
	return c
}

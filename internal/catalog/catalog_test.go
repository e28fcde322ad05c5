package catalog

import (
	"strings"
	"testing"

	"repro/internal/column"
)

func TestMSEEDSchema(t *testing.T) {
	c := MSEED()
	if len(c.Tables()) != 3 {
		t.Fatalf("tables = %d", len(c.Tables()))
	}
	if len(c.Views()) != 1 {
		t.Fatalf("views = %d", len(c.Views()))
	}
	f, ok := c.Table(TableFiles)
	if !ok || len(f.Columns) != 16 || f.PrimaryKey[0] != "file_id" {
		t.Errorf("files table: %+v", f)
	}
	r, ok := c.Table(TableRecords)
	if !ok || len(r.ForeignKeys) != 1 || r.ForeignKeys[0].RefTable != TableFiles {
		t.Errorf("records table: %+v", r)
	}
	d, ok := c.Table(TableData)
	if !ok || d.ForeignKeys[0].RefTable != TableRecords || len(d.ForeignKeys[0].Columns) != 2 {
		t.Errorf("data table: %+v", d)
	}
	v, ok := c.View(ViewDataview)
	if !ok {
		t.Fatal("no dataview")
	}
	// F cols + R cols minus file_id + D cols minus keys.
	want := 16 + (7 - 1) + (4 - 2)
	if len(v.Columns) != want {
		t.Errorf("dataview columns = %d, want %d", len(v.Columns), want)
	}
	if cd, ok := v.Col("F.station"); !ok || cd.Type != column.String {
		t.Errorf("F.station: %+v %v", cd, ok)
	}
	if cd, ok := v.Col("D.sample_time"); !ok || cd.Type != column.Timestamp {
		t.Errorf("D.sample_time: %+v %v", cd, ok)
	}
	if _, ok := v.Col("R.file_id"); ok {
		t.Error("R.file_id should not be a view column")
	}
}

func TestNameResolution(t *testing.T) {
	c := MSEED()
	for _, name := range []string{"mseed.files", "files"} {
		if _, ok := c.Table(name); !ok {
			t.Errorf("table %q not resolved", name)
		}
	}
	for _, name := range []string{"mseed.dataview", "dataview"} {
		if _, ok := c.View(name); !ok {
			t.Errorf("view %q not resolved", name)
		}
	}
	if _, ok := c.Table("elsewhere.files"); ok {
		t.Error("qualified miss resolved unexpectedly")
	}
}

func TestTableColLookup(t *testing.T) {
	c := MSEED()
	tbl, _ := c.Table(TableRecords)
	if cd, ok := tbl.Col("seqno"); !ok || cd.Type != column.Int64 {
		t.Errorf("seqno: %+v %v", cd, ok)
	}
	if _, ok := tbl.Col("nope"); ok {
		t.Error("missing column resolved")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	c := New()
	if err := c.AddTable(&TableDef{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(&TableDef{Name: "t"}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := c.AddView(&ViewDef{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(&ViewDef{Name: "v"}); err == nil {
		t.Error("duplicate view accepted")
	}
}

// recordsBatch is an mseed.records batch of n identical rows.
func recordsBatch(n int) *column.Batch {
	ints := func(v int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	rates := make([]float64, n)
	return column.MustNewBatch(
		column.NewInt64s("file_id", ints(1)),
		column.NewInt64s("seqno", ints(1)),
		column.NewTimestamps("start_time", ints(100)),
		column.NewTimestamps("end_time", ints(200)),
		column.NewFloat64s("sample_rate", rates),
		column.NewInt64s("num_samples", ints(50)),
		column.NewInt64s("file_offset", ints(0)),
	)
}

// TestStoreAppendAndRows: rows reach a table by publishing a batch with
// Replace, and Rows and Table report the published batch on the store and
// on its snapshot; a later, larger batch supersedes it whole.
func TestStoreAppendAndRows(t *testing.T) {
	s := NewStore(MSEED())
	if err := s.Replace(TableRecords, recordsBatch(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Rows(TableRecords); got != 1 {
		t.Errorf("rows = %d", got)
	}
	if b, err := s.Table("records"); err != nil || b.NumRows() != 1 {
		t.Errorf("unqualified lookup = %v, %v", b, err)
	}
	if err := s.Replace(TableRecords, recordsBatch(3)); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Rows(TableRecords); got != 3 {
		t.Errorf("rows after second Replace = %d, want 3", got)
	}
	wrongType := column.MustNewBatch(
		column.New("file_id", column.String),
		column.New("seqno", column.Int64),
		column.New("start_time", column.Timestamp),
		column.New("end_time", column.Timestamp),
		column.New("sample_rate", column.Float64),
		column.New("num_samples", column.Int64),
		column.New("file_offset", column.Int64),
	)
	if err := s.Replace(TableRecords, wrongType); err == nil {
		t.Error("type-mismatched batch accepted")
	}
	if got := s.Snapshot().Rows(TableRecords); got != 3 {
		t.Errorf("rejected batch changed rows to %d", got)
	}
}

// TestStoreTruncateAndBytes: Bytes follows the published batches, an empty
// batch truncates a table, and unknown tables report nothing.
func TestStoreTruncateAndBytes(t *testing.T) {
	s := NewStore(MSEED())
	if s.Bytes() != 0 {
		t.Errorf("empty store holds %d bytes", s.Bytes())
	}
	if err := s.Replace(TableRecords, recordsBatch(4)); err != nil {
		t.Fatal(err)
	}
	full := s.Bytes()
	if full == 0 {
		t.Error("bytes = 0 after Replace")
	}
	if err := s.Replace(TableRecords, recordsBatch(0)); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Rows(TableRecords) != 0 {
		t.Error("empty batch left rows")
	}
	if s.Bytes() >= full {
		t.Errorf("bytes = %d after truncating, was %d", s.Bytes(), full)
	}
	if err := s.Replace("nosuch", recordsBatch(0)); err == nil {
		t.Error("unknown table truncated")
	}
	if s.Snapshot().Rows("nosuch") != 0 {
		t.Error("unknown table rows != 0")
	}
	if _, err := s.Table("nosuch"); err == nil {
		t.Error("unknown table lookup succeeded")
	}
}

func TestStoreReplaceValidation(t *testing.T) {
	s := NewStore(MSEED())
	good := column.MustNewBatch(
		column.New("file_id", column.Int64),
		column.New("seqno", column.Int64),
		column.New("sample_time", column.Timestamp),
		column.New("sample_value", column.Float64),
	)
	if err := s.Replace(TableData, good); err != nil {
		t.Fatal(err)
	}
	wrongName := column.MustNewBatch(
		column.New("x", column.Int64),
		column.New("seqno", column.Int64),
		column.New("sample_time", column.Timestamp),
		column.New("sample_value", column.Float64),
	)
	if err := s.Replace(TableData, wrongName); err == nil {
		t.Error("wrong column name accepted")
	}
	short := column.MustNewBatch(column.New("file_id", column.Int64))
	if err := s.Replace(TableData, short); err == nil {
		t.Error("short batch accepted")
	}
	if err := s.Replace("nosuch", good); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestDataviewSQLMentionsAllTables(t *testing.T) {
	v, _ := MSEED().View(ViewDataview)
	for _, tbl := range []string{TableFiles, TableRecords, TableData} {
		if !contains(v.SQL, tbl) {
			t.Errorf("view SQL lacks %s: %s", tbl, v.SQL)
		}
	}
}

// TestDataviewSQLSelectListMatchesColumns derives the view's columns from
// the select list of the definition the catalog displays (F.* standing for
// every files column) and requires exactly DataviewColumns, in order: what
// \schema shows is what SELECT * returns.
func TestDataviewSQLSelectListMatchesColumns(t *testing.T) {
	list, _, ok := strings.Cut(strings.TrimPrefix(DataviewSQL, "SELECT "), " FROM ")
	if !ok {
		t.Fatalf("view SQL has no select list: %s", DataviewSQL)
	}
	var shown []string
	for _, item := range strings.Split(list, ", ") {
		if item != "F.*" {
			shown = append(shown, item)
			continue
		}
		for _, c := range FilesColumns {
			shown = append(shown, "F."+c.Name)
		}
	}
	var want []string
	for _, c := range DataviewColumns() {
		want = append(want, c.Name)
	}
	if got, want := strings.Join(shown, ", "), strings.Join(want, ", "); got != want {
		t.Errorf("displayed select list and DataviewColumns disagree\nshown: %s\nwant:  %s", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStoreSnapshotIsolation: a snapshot keeps serving the tables published
// when it was taken, unaffected by later publications, and each publication
// is a new version.
func TestStoreSnapshotIsolation(t *testing.T) {
	s := NewStore(MSEED())
	if err := s.Replace(TableRecords, recordsBatch(1)); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if err := s.Replace(TableRecords, recordsBatch(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Rows(TableRecords); got != 2 {
		t.Fatalf("live store rows = %d after the second Replace", got)
	}
	if snap.Rows(TableRecords) != 1 {
		t.Fatalf("snapshot rows = %d, want 1 (isolation broken)", snap.Rows(TableRecords))
	}
	if got, was := s.Snapshot().Version(), snap.Version(); got != was+1 {
		t.Fatalf("version %d after one publication on %d", got, was)
	}
}

// TestStoreReplaceAllAtomic: ReplaceAll validates everything before
// committing anything, and commits every table in one step.
func TestStoreReplaceAllAtomic(t *testing.T) {
	s := NewStore(MSEED())
	goodData := column.MustNewBatch(
		column.New("file_id", column.Int64),
		column.New("seqno", column.Int64),
		column.New("sample_time", column.Timestamp),
		column.New("sample_value", column.Float64),
	)
	goodData.ColAt(0).AppendInt64(7)
	goodData.ColAt(1).AppendInt64(1)
	goodData.ColAt(2).AppendInt64(0)
	goodData.ColAt(3).AppendFloat64(1.5)
	bad := column.MustNewBatch(column.New("wrong", column.Int64))

	// One invalid batch fails the whole commit; the valid one must not land.
	if err := s.ReplaceAll(map[string]*column.Batch{
		TableData:  goodData,
		TableFiles: bad,
	}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if s.Snapshot().Rows(TableData) != 0 || s.Snapshot().Version() != 0 {
		t.Fatal("partial ReplaceAll commit observed")
	}
	if err := s.ReplaceAll(map[string]*column.Batch{TableData: goodData}); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Rows(TableData); got != 1 {
		t.Fatalf("rows = %d after ReplaceAll", got)
	}
	if err := s.ReplaceAll(map[string]*column.Batch{"nosuch": goodData}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

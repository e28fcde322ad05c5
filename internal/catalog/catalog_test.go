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

func TestStoreAppendAndRows(t *testing.T) {
	s := NewStore(MSEED())
	if err := s.AppendRow(TableRecords,
		column.NewInt64(1), column.NewInt64(1), column.NewTimestamp(100),
		column.NewTimestamp(200), column.NewFloat64(40), column.NewInt64(50),
		column.NewInt64(0),
	); err != nil {
		t.Fatal(err)
	}
	if s.Rows(TableRecords) != 1 {
		t.Errorf("rows = %d", s.Rows(TableRecords))
	}
	// Arity check.
	if err := s.AppendRow(TableRecords, column.NewInt64(1)); err == nil {
		t.Error("short row accepted")
	}
	// Type check.
	if err := s.AppendRow(TableFiles,
		column.NewString("not an id"), column.NewString("uri"), column.NewString("NL"),
		column.NewString("HGN"), column.NewString(""), column.NewString("BHZ"),
		column.NewString("D"), column.NewString("STEIM2"), column.NewInt64(512),
		column.NewFloat64(40), column.NewTimestamp(0), column.NewTimestamp(0),
		column.NewInt64(1), column.NewInt64(1), column.NewInt64(512), column.NewTimestamp(0),
	); err == nil {
		t.Error("type-mismatched row accepted")
	}
	if err := s.AppendRow("nosuch", column.NewInt64(1)); err == nil {
		t.Error("unknown table accepted")
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

func TestStoreTruncateAndBytes(t *testing.T) {
	s := NewStore(MSEED())
	if err := s.AppendRow(TableData,
		column.NewInt64(1), column.NewInt64(1),
		column.NewTimestamp(1), column.NewFloat64(2.5),
	); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() == 0 {
		t.Error("bytes = 0 after append")
	}
	if err := s.Truncate(TableData); err != nil {
		t.Fatal(err)
	}
	if s.Rows(TableData) != 0 {
		t.Error("truncate left rows")
	}
	if err := s.Truncate("nosuch"); err == nil {
		t.Error("unknown table truncated")
	}
	if s.Rows("nosuch") != 0 {
		t.Error("unknown table rows != 0")
	}
	if _, err := s.Table("nosuch"); err == nil {
		t.Error("unknown table lookup succeeded")
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

// TestStoreSnapshotIsolation: a snapshot keeps serving the tables loaded at
// snapshot time, unaffected by later Replace/Truncate on the live store.
func TestStoreSnapshotIsolation(t *testing.T) {
	s := NewStore(MSEED())
	if err := s.AppendRow(TableRecords,
		column.NewInt64(1), column.NewInt64(1), column.NewTimestamp(100),
		column.NewTimestamp(200), column.NewFloat64(40), column.NewInt64(50),
		column.NewInt64(0),
	); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if err := s.Truncate(TableRecords); err != nil {
		t.Fatal(err)
	}
	if s.Rows(TableRecords) != 0 {
		t.Fatalf("live store rows = %d after truncate", s.Rows(TableRecords))
	}
	if snap.Rows(TableRecords) != 1 {
		t.Fatalf("snapshot rows = %d, want 1 (isolation broken)", snap.Rows(TableRecords))
	}
	if snap.Catalog() != s.Catalog() {
		t.Fatal("snapshot must share the schema registry")
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
	if s.Rows(TableData) != 0 {
		t.Fatal("partial ReplaceAll commit observed")
	}
	if err := s.ReplaceAll(map[string]*column.Batch{TableData: goodData}); err != nil {
		t.Fatal(err)
	}
	if s.Rows(TableData) != 1 {
		t.Fatalf("rows = %d after ReplaceAll", s.Rows(TableData))
	}
	if err := s.ReplaceAll(map[string]*column.Batch{"nosuch": goodData}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

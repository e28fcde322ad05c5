package column

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt64(-7), "-7"},
		{NewFloat64(2.5), "2.5"},
		{NewString("ISK"), "ISK"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewNull(Int64), "NULL"},
		{NewTimestamp(time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC).UnixNano()), "2010-01-12T22:15:00.000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueConversions(t *testing.T) {
	if NewInt64(3).AsFloat() != 3.0 {
		t.Error("AsFloat of int")
	}
	if NewFloat64(3.9).AsInt() != 3 {
		t.Error("AsInt truncation")
	}
	if !asBool(NewBool(true)) || asBool(NewBool(false)) {
		t.Error("asBool")
	}
	if asBool(NewNull(Bool)) {
		t.Error("null asBool must be false")
	}
}

func TestCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		if c, err := Compare(a, b); err != nil || c >= 0 {
			t.Errorf("Compare(%v, %v) = %d, %v; want <0", a, b, c, err)
		}
		if c, err := Compare(b, a); err != nil || c <= 0 {
			t.Errorf("Compare(%v, %v) = %d, %v; want >0", b, a, c, err)
		}
	}
	eq := func(a, b Value) {
		t.Helper()
		if c, err := Compare(a, b); err != nil || c != 0 {
			t.Errorf("Compare(%v, %v) = %d, %v; want 0", a, b, c, err)
		}
	}
	lt(NewInt64(1), NewInt64(2))
	lt(NewFloat64(1.5), NewInt64(2))
	lt(NewInt64(1), NewFloat64(1.5))
	eq(NewInt64(2), NewFloat64(2))
	lt(NewString("BHE"), NewString("BHZ"))
	eq(NewString("x"), NewString("x"))
	lt(NewBool(false), NewBool(true))
	lt(NewNull(Int64), NewInt64(-1<<62))
	eq(NewNull(Int64), NewNull(String))
	lt(NewTimestamp(100), NewTimestamp(200))
	eq(NewTimestamp(5), NewInt64(5)) // timestamps are numeric

	if _, err := Compare(NewString("x"), NewInt64(1)); err == nil {
		t.Error("expected type error comparing string with int")
	}
}

func TestParseTimestamp(t *testing.T) {
	cases := map[string]time.Time{
		"2010-01-12T22:15:00.000": time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC),
		"2010-01-12 22:15:02.5":   time.Date(2010, 1, 12, 22, 15, 2, 500_000_000, time.UTC),
		"2010-01-12T23:59:59.999": time.Date(2010, 1, 12, 23, 59, 59, 999_000_000, time.UTC),
		"2010-01-12T22:15:00":     time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC),
		"2010-01-12":              time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC),
	}
	for in, want := range cases {
		got, err := ParseTimestamp(in)
		if err != nil {
			t.Errorf("ParseTimestamp(%q): %v", in, err)
			continue
		}
		if got != want.UnixNano() {
			t.Errorf("ParseTimestamp(%q) = %d, want %d", in, got, want.UnixNano())
		}
	}
	for _, bad := range []string{"", "yesterday", "2010-13-01", "22:15:00"} {
		if _, err := ParseTimestamp(bad); err == nil {
			t.Errorf("ParseTimestamp(%q): expected error", bad)
		}
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" ||
		String.String() != "VARCHAR" || Bool.String() != "BOOLEAN" ||
		Timestamp.String() != "TIMESTAMP" {
		t.Error("type names")
	}
	if !Timestamp.Numeric() || String.Numeric() {
		t.Error("Numeric classification")
	}
}

func TestColumnAppendAndValue(t *testing.T) {
	c := New("x", Int64)
	c.AppendInt64(10)
	c.AppendInt64(-20)
	c.AppendNull()
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Value(0).I != 10 || c.Value(1).I != -20 {
		t.Error("values")
	}
	if !c.IsNull(2) || c.IsNull(0) {
		t.Error("null tracking")
	}
	if !c.Value(2).Null {
		t.Error("null value boxing")
	}
}

func TestColumnAppendValueTypeChecks(t *testing.T) {
	c := New("s", String)
	if err := c.AppendValue(NewString("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(NewInt64(1)); err == nil {
		t.Error("expected error appending int to string column")
	}
	f := New("f", Float64)
	if err := f.AppendValue(NewInt64(3)); err != nil {
		t.Errorf("int into float column should coerce: %v", err)
	}
	if f.Float64s()[0] != 3.0 {
		t.Error("coerced value")
	}
	if err := f.AppendValue(NewString("x")); err == nil {
		t.Error("expected error appending string to float column")
	}
	i := New("i", Int64)
	if err := i.AppendValue(NewFloat64(2.7)); err != nil {
		t.Errorf("float into int column should truncate: %v", err)
	}
	if i.Int64s()[0] != 2 {
		t.Error("truncated value")
	}
}

func TestColumnGather(t *testing.T) {
	c := NewStrings("st", []string{"a", "b", "c", "d"})
	g := c.Gather([]int32{3, 1, 1})
	if g.Len() != 3 || g.Strings()[0] != "d" || g.Strings()[1] != "b" || g.Strings()[2] != "b" {
		t.Errorf("gather: %v", g.Strings())
	}
	n := New("n", Int64)
	n.AppendInt64(1)
	n.AppendNull()
	gn := n.Gather([]int32{1, 0})
	if !gn.IsNull(0) || gn.IsNull(1) {
		t.Error("gather must carry nulls")
	}
}

func TestColumnGatherPropertyQuick(t *testing.T) {
	f := func(vals []int64, idx []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewInt64s("v", vals)
		sel := make([]int32, len(idx))
		for i, x := range idx {
			sel[i] = int32(int(x) % len(vals))
		}
		g := c.Gather(sel)
		for i, s := range sel {
			if g.Int64s()[i] != vals[s] {
				return false
			}
		}
		return g.Len() == len(sel)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestColumnRepeatMatchesGather checks Repeat against Gather over the
// expanded selection vector, for every vector type, with nulls, zero-length
// runs and run lengths on both sides of the doubling steps.
func TestColumnRepeatMatchesGather(t *testing.T) {
	nullable := New("n", Int64)
	nullable.AppendInt64(7)
	nullable.AppendNull()
	nullable.AppendInt64(9)
	cols := []*Column{
		NewInt64s("i", []int64{10, 20, 30}),
		NewFloat64s("f", []float64{1.5, -2.5, 0}),
		NewStrings("s", []string{"a", "", "ccc"}),
		NewIntFamily("b", Bool, []int64{1, 0, 1}),
		nullable,
	}
	rows := []int32{2, 0, 1, 1, 0}
	counts := []int{5, 0, 1, 8, 3}
	var sel []int32
	for x, r := range rows {
		for j := 0; j < counts[x]; j++ {
			sel = append(sel, r)
		}
	}
	for _, c := range cols {
		got, want := c.Repeat(rows, counts), c.Gather(sel)
		if got.Name() != want.Name() || got.Type() != want.Type() || got.Len() != want.Len() || got.HasNulls() != want.HasNulls() {
			t.Fatalf("%s: repeat shape (%v, %d rows, nulls=%v) != gather shape (%v, %d rows, nulls=%v)",
				c.Name(), got.Type(), got.Len(), got.HasNulls(), want.Type(), want.Len(), want.HasNulls())
		}
		for i := range sel {
			if got.Value(i) != want.Value(i) {
				t.Errorf("%s[%d]: repeat %v, gather %v", c.Name(), i, got.Value(i), want.Value(i))
			}
		}
	}
	if empty := cols[2].Repeat(nil, nil); empty.Len() != 0 || empty.Type() != String {
		t.Errorf("empty repeat: %d rows of %v", empty.Len(), empty.Type())
	}
}

func TestColumnAppendColumn(t *testing.T) {
	a := NewInt64s("a", []int64{1, 2})
	b := NewInt64s("b", []int64{3})
	if err := a.AppendColumn(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 || a.Int64s()[2] != 3 {
		t.Error("append column values")
	}
	s := NewStrings("s", []string{"x"})
	if err := a.AppendColumn(s); err == nil {
		t.Error("expected type mismatch error")
	}
	// Null propagation across appends.
	n1 := New("n", Float64)
	n1.AppendFloat64(1)
	n2 := New("n", Float64)
	n2.AppendNull()
	if err := n1.AppendColumn(n2); err != nil {
		t.Fatal(err)
	}
	if n1.IsNull(0) || !n1.IsNull(1) {
		t.Error("null propagation")
	}
}

func TestColumnWithName(t *testing.T) {
	c := NewInt64s("a", []int64{1})
	d := c.WithName("b")
	if d.Name() != "b" || c.Name() != "a" {
		t.Error("rename")
	}
	if &c.ints[0] != &d.ints[0] {
		t.Error("WithName must share storage")
	}
}

func TestColumnBytes(t *testing.T) {
	c := NewInt64s("a", []int64{1, 2, 3})
	if c.Bytes() != 24 {
		t.Errorf("int column bytes = %d, want 24", c.Bytes())
	}
	s := NewStrings("s", []string{"abc"})
	if s.Bytes() != 19 { // 3 + 16 header
		t.Errorf("string column bytes = %d, want 19", s.Bytes())
	}
}

func TestBatchBasics(t *testing.T) {
	b := MustNewBatch(
		NewStrings("station", []string{"ISK", "HGN"}),
		NewFloat64s("value", []float64{1.5, -2.5}),
	)
	if b.NumRows() != 2 || b.NumCols() != 2 {
		t.Fatalf("shape %dx%d", b.NumRows(), b.NumCols())
	}
	c, ok := b.Col("station")
	if !ok || c.Strings()[1] != "HGN" {
		t.Error("Col lookup")
	}
	if _, ok := b.Col("nope"); ok {
		t.Error("missing column lookup")
	}
	if names := b.Names(); names[0] != "station" || names[1] != "value" {
		t.Errorf("names %v", names)
	}
	row := b.Row(0)
	if row[0].S != "ISK" || row[1].F != 1.5 {
		t.Errorf("row %v", row)
	}
}

func TestBatchErrors(t *testing.T) {
	_, err := NewBatch(
		NewInt64s("a", []int64{1, 2}),
		NewInt64s("b", []int64{1}),
	)
	if err == nil {
		t.Error("expected length mismatch error")
	}
	_, err = NewBatch(
		NewInt64s("a", []int64{1}),
		NewInt64s("a", []int64{2}),
	)
	if err == nil {
		t.Error("expected duplicate name error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewBatch should panic on error")
		}
	}()
	MustNewBatch(NewInt64s("a", []int64{1, 2}), NewInt64s("b", []int64{1}))
}

func TestBatchGatherAndAppend(t *testing.T) {
	b := MustNewBatch(
		NewInt64s("id", []int64{1, 2, 3}),
		NewStrings("s", []string{"a", "b", "c"}),
	)
	g := b.Gather([]int32{2, 0})
	if g.NumRows() != 2 {
		t.Fatal("gather rows")
	}
	idc, _ := g.Col("id")
	if idc.Int64s()[0] != 3 || idc.Int64s()[1] != 1 {
		t.Error("gather values")
	}
	other := MustNewBatch(
		NewInt64s("id", []int64{9}),
		NewStrings("s", []string{"z"}),
	)
	if err := g.AppendBatch(other); err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 3 {
		t.Error("append rows")
	}
	bad := MustNewBatch(NewInt64s("id", []int64{1}))
	if err := g.AppendBatch(bad); err == nil {
		t.Error("expected column count mismatch")
	}
}

func TestBatchString(t *testing.T) {
	b := MustNewBatch(
		NewStrings("station", []string{"ISK"}),
		NewFloat64s("avg", []float64{3.25}),
	)
	s := b.String()
	if s == "" || len(s) < 10 {
		t.Errorf("render: %q", s)
	}
	// Truncation marker for long batches.
	long := make([]int64, 100)
	lb := MustNewBatch(NewInt64s("x", long))
	if got := lb.String(); !contains(got, "100 rows total") {
		t.Errorf("expected truncation note, got %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestBatchAddColumnAfterConstruction(t *testing.T) {
	b := MustNewBatch(NewInt64s("a", []int64{1, 2}))
	if err := b.AddColumn(NewInt64s("b", []int64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if b.NumCols() != 2 {
		t.Error("add column")
	}
	if err := b.AddColumn(NewInt64s("c", []int64{5})); err == nil {
		t.Error("expected length mismatch")
	}
}

// asBool is the truth value of a Bool Value; nulls are false.
func asBool(v Value) bool { return !v.Null && v.I != 0 }

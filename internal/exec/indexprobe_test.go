package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// indexProbeCase is one join FuzzIndexProbe decodes: a right table sorted on
// rk, with a payload column, a row-id column and a nullable predicate column
// v; a left input cut into morsels, each with an optional selection vector;
// and the right-side predicates.
type indexProbeCase struct {
	right   *column.Batch
	morsels []Morsel
	preds   []sql.Expr
}

// decodeIndexProbeCase builds a case from fuzz input. data[0] is the right
// row count and data[1] the first right key (signed, so keys go negative).
// Each right row then takes one byte: its low two bits step the key (0 a
// duplicate, 1-3 a gap), the rest is v (0 NULL). Each left row takes two
// bytes: a key byte, spread over the right keys' range and a little past
// both ends, and a flags byte — bit 0 NULL, bit 1 live under the selection,
// bit 2 a morsel ends after the row, bit 3 the row repeats the previous key.
// mode bit 0 makes the left key a Timestamp and bit 1 the right one (else
// Int64); bit 2 hands the left key over in run form; bit 3 gives morsels a
// selection vector; bits 4-5 pick the right predicate.
func decodeIndexProbeCase(data []byte, mode uint8) indexProbeCase {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	nr := min(int(data[0]), len(data)-2)
	key := int64(int8(data[1]))
	base := key
	rk, rv, rs, rowid := make([]int64, nr), make([]int64, nr), make([]string, nr), make([]int64, nr)
	var rvNulls []bool
	for i := 0; i < nr; i++ {
		b := data[2+i]
		key += int64(b & 3)
		rk[i], rowid[i], rs[i] = key, int64(i), fmt.Sprintf("r%d", i)
		if rv[i] = int64(b>>2) - 32; b>>2 == 0 {
			if rvNulls == nil {
				rvNulls = make([]bool, nr)
			}
			rvNulls[i], rv[i] = true, 0
		}
	}
	rtyp, ltyp := column.Int64, column.Int64
	if mode&1 != 0 {
		ltyp = column.Timestamp
	}
	if mode&2 != 0 {
		rtyp = column.Timestamp
	}
	vc := column.NewInt64s("v", rv)
	vc.SetNulls(rvNulls)
	right := column.MustNewBatch(column.NewIntFamily("rk", rtyp, rk), vc, column.NewStrings("rs", rs), column.NewInt64s("rowid", rowid))

	// Left rows.
	rest := data[2+nr:]
	nl := len(rest) / 2
	span := key - base + 5
	lk, lv := make([]int64, nl), make([]float64, nl)
	lkNulls := make([]bool, nl)
	var runRows []int32
	var runCounts []int
	var cuts []int
	var live []bool
	for i := 0; i < nl; i++ {
		kb, fb := rest[2*i], rest[2*i+1]
		lk[i] = base - 2 + int64(kb)%span
		if i > 0 && fb&8 != 0 {
			lk[i], lkNulls[i] = lk[i-1], lkNulls[i-1]
			runCounts[len(runCounts)-1]++
		} else {
			lkNulls[i] = fb&1 != 0
			runRows, runCounts = append(runRows, int32(i)), append(runCounts, 1)
		}
		if lkNulls[i] {
			lk[i] = 0
		}
		lv[i] = float64(int8(kb)) / 3
		if kb == 0xFF {
			lv[i] = math.NaN()
		}
		live = append(live, fb&2 != 0)
		if fb&4 != 0 {
			cuts = append(cuts, i+1)
		}
	}
	keyCol := column.NewIntFamily("lk", ltyp, lk)
	if slices.Contains(lkNulls, true) {
		keyCol.SetNulls(lkNulls)
	}
	if mode&4 != 0 {
		// One value per run of repeated keys, handed over in run form.
		vals := column.New("lk", ltyp)
		for _, r := range runRows {
			if err := vals.AppendValue(keyCol.Value(int(r))); err != nil {
				panic(err)
			}
		}
		seq := make([]int32, len(runRows))
		for i := range seq {
			seq[i] = int32(i)
		}
		keyCol = vals.Repeat(seq, runCounts)
	}
	left := column.MustNewBatch(keyCol, column.NewFloat64s("lv", lv))
	var morsels []Morsel
	for lo := 0; lo < nl; {
		hi := nl
		if j := slices.IndexFunc(cuts, func(c int) bool { return c > lo }); j >= 0 {
			hi = cuts[j]
		}
		m := Morsel{B: left.Range(lo, hi)}
		if mode&8 != 0 {
			m.Sel = []int32{}
			for i := lo; i < hi; i++ {
				if live[i] {
					m.Sel = append(m.Sel, int32(i-lo))
				}
			}
		}
		morsels = append(morsels, m)
		lo = hi
	}

	c := int64(int8(data[1])%32) - 4
	v := &sql.ColumnRef{Name: "v"}
	lit := func(x int64) sql.Expr { return &sql.Literal{Val: column.NewInt64(x)} }
	var preds []sql.Expr
	switch mode >> 4 & 3 {
	case 1:
		preds = []sql.Expr{&sql.Binary{Op: sql.OpGt, L: v, R: lit(c)}}
	case 2: // two conjuncts: the second runs over the first's selection
		preds = []sql.Expr{&sql.Binary{Op: sql.OpGe, L: v, R: lit(c)}, &sql.Binary{Op: sql.OpLt, L: v, R: lit(c + 20)}}
	case 3:
		preds = []sql.Expr{&sql.Binary{Op: sql.OpOr,
			L: &sql.Binary{Op: sql.OpLt, L: v, R: lit(c)}, R: &sql.IsNull{X: v}}}
	}
	return indexProbeCase{right: right, morsels: morsels, preds: preds}
}

// FuzzIndexProbe holds the index probe to the hash probe it replaces: for
// every morsel, the (left, right) row pairs and the assembled batch must
// equal, bit for bit, what ProbeStage emits against a table built over the
// right side filtered in advance — the hash path's build. Inputs cover
// sorted right keys with duplicates, gaps, negative values and empty
// tables; left keys that are NULL, out of range, unsorted or in run form;
// Int64 against Timestamp keys; and no, one, two or a disjunctive right
// predicate (see decodeIndexProbeCase for the encoding).
func FuzzIndexProbe(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 7, 1, 2, 3, 2}, uint8(0x3F)) // an empty table
	// 40 right rows from key -20 with duplicates, gaps and NULL v; 60 left
	// rows over every flag combination, under every mode family.
	rich := []byte{40, 0xEC}
	for i := 0; i < 40; i++ {
		rich = append(rich, byte(i*37))
	}
	for i := 0; i < 60; i++ {
		rich = append(rich, byte(i*29+3), byte(i*13))
	}
	for _, mode := range []uint8{0, 0x0F, 0x14, 0x1B, 0x26, 0x39, 0x3C} {
		f.Add(rich, mode)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		c := decodeIndexProbeCase(data, mode)
		if c.morsels == nil {
			c.morsels = []Morsel{{B: column.MustNewBatch(column.New("lk", column.Int64), column.New("lv", column.Float64))}}
		}
		proto := c.morsels[0].B.Range(0, 0)
		// ix yields the pairs, stage the assembled morsels and the counters.
		ix, err := NewIndexProbeStage(proto, c.right, "lk", "rk", c.preds, nil)
		if err != nil {
			t.Fatal(err)
		}
		stage, err := NewIndexProbeStage(proto, c.right, "lk", "rk", c.preds, nil)
		if err != nil {
			t.Fatal(err)
		}
		built, err := Filter(c.right, c.preds)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := BuildProbeTable(context.Background(), proto, built, []string{"lk"}, []string{"rk"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer jp.Close()
		hash := jp.NewStage()
		builtRow, _ := built.Col("rowid")
		for mi, m := range c.morsels {
			l, r, err := ix.probe(m)
			if err != nil {
				t.Fatal(err)
			}
			hl, hr, err := jp.jt.probeMorsel(m.B, m.Sel)
			if err != nil {
				t.Fatal(err)
			}
			for k, br := range hr {
				hr[k] = int32(builtRow.Int64s()[br])
			}
			if !slices.Equal(l, hl) || !slices.Equal(r, hr) {
				t.Fatalf("morsel %d: index pairs %v / %v, hash pairs %v / %v", mi, l, r, hl, hr)
			}
			got, err := stage.Process(m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hash.Process(m)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows() != want.Rows() {
				t.Fatalf("morsel %d: %d rows assembled, hash %d", mi, got.Rows(), want.Rows())
			}
			if got.Rows() > 0 && (schemaOf(got.B) != schemaOf(want.B) || renderBits(got.B) != renderBits(want.B)) {
				t.Fatalf("morsel %d: assembled batches differ\nindex %s:\n%s\nhash %s:\n%s",
					mi, schemaOf(got.B), renderBits(got.B), schemaOf(want.B), renderBits(want.B))
			}
		}
		gin, gout := stage.Rows()
		hin, hout := hash.Rows()
		if gin != hin || gout != hout {
			t.Fatalf("stage counters (%d in, %d out), hash (%d, %d)", gin, gout, hin, hout)
		}
		if stage.Examined() > int64(c.right.NumRows())*gin {
			t.Fatalf("examined %d rows of %d for %d probe rows", stage.Examined(), c.right.NumRows(), gin)
		}
	})
}

// TestIndexProbeExtremeKeys covers the key range's ends, which the fuzzer's
// small keys never reach: the search for the rows past MaxInt64 cannot step
// to v+1.
func TestIndexProbeExtremeKeys(t *testing.T) {
	right := column.MustNewBatch(
		column.NewInt64s("rk", []int64{math.MinInt64, math.MinInt64, 0, math.MaxInt64, math.MaxInt64}),
		column.NewInt64s("rowid", []int64{0, 1, 2, 3, 4}),
	)
	left := column.MustNewBatch(column.NewInt64s("lk", []int64{math.MaxInt64, 1, math.MinInt64, 0, math.MaxInt64 - 1}))
	ix, err := NewIndexProbeStage(left.Range(0, 0), right, "lk", "rk", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := ix.probe(Morsel{B: left})
	if err != nil {
		t.Fatal(err)
	}
	wantL, wantR := []int32{0, 0, 2, 2, 3}, []int32{3, 4, 0, 1, 2}
	if !slices.Equal(l, wantL) || !slices.Equal(r, wantR) {
		t.Fatalf("pairs %v / %v, want %v / %v", l, r, wantL, wantR)
	}
}

// schemaOf renders a batch's column names and types.
func schemaOf(b *column.Batch) string {
	parts := make([]string, b.NumCols())
	for i := range parts {
		parts[i] = b.ColAt(i).Name() + " " + b.ColAt(i).Type().String()
	}
	return strings.Join(parts, ", ")
}

// TestIndexProbeBuildErrors pins the index stage's construction to the
// whole-table filter the hash path runs before it builds: a predicate that
// cannot evaluate over the right side's types fails the stage even though no
// probe row has arrived — unless the predicates before it keep no row of
// the table, which is when the filter never reaches it either.
func TestIndexProbeBuildErrors(t *testing.T) {
	right := column.MustNewBatch(
		column.NewInt64s("rk", []int64{1, 1, 2, 5}),
		column.NewTimestamps("ts", []int64{10, 20, 30, 40}),
		column.NewStrings("s", []string{"a", "b", "c", "d"}),
	)
	proto := column.MustNewBatch(column.New("lk", column.Int64))
	ref := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
	str := func(s string) sql.Expr { return &sql.Literal{Val: column.NewString(s)} }
	num := func(x int64) sql.Expr { return &sql.Literal{Val: column.NewInt64(x)} }
	cases := []struct {
		name  string
		preds []sql.Expr
		fails bool
	}{
		{"unparsable timestamp", []sql.Expr{&sql.Binary{Op: sql.OpGt, L: ref("ts"), R: str("nope")}}, true},
		{"type mismatch", []sql.Expr{&sql.Binary{Op: sql.OpGt, L: ref("s"), R: num(5)}}, true},
		{"unknown column", []sql.Expr{&sql.Binary{Op: sql.OpGt, L: ref("nope"), R: num(5)}}, true},
		{"behind a predicate some row passes", []sql.Expr{
			&sql.Binary{Op: sql.OpGt, L: ref("rk"), R: num(1)},
			&sql.Binary{Op: sql.OpGt, L: ref("s"), R: num(5)}}, true},
		{"behind a predicate no row passes", []sql.Expr{
			&sql.Binary{Op: sql.OpGt, L: ref("rk"), R: num(9)},
			&sql.Binary{Op: sql.OpGt, L: ref("s"), R: num(5)}}, false},
		{"valid", []sql.Expr{&sql.Binary{Op: sql.OpGt, L: ref("ts"), R: str("1970-01-01")}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewIndexProbeStage(proto, right, "lk", "rk", tc.preds, nil)
			_, want := Filter(right, tc.preds)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("stage error %v, whole-table filter error %v", err, want)
			}
			if (err != nil) != tc.fails {
				t.Fatalf("stage error %v, want failure: %v", err, tc.fails)
			}
		})
	}
	if _, err := NewIndexProbeStage(proto, right, "lk", "s", nil, nil); err == nil {
		t.Error("a string build key must be refused")
	}
	if _, err := NewIndexProbeStage(proto, right, "nope", "rk", nil, nil); err == nil {
		t.Error("a missing probe key must be refused")
	}
}

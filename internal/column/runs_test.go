package column

import (
	"math"
	"sync"
	"testing"
)

// sameColumn fails unless got and want agree through every reading method:
// shape, boxed values, null flags, raw vectors and footprint.
func sameColumn(t *testing.T, what string, got, want *Column) {
	t.Helper()
	if got.Name() != want.Name() || got.Type() != want.Type() || got.Len() != want.Len() || got.HasNulls() != want.HasNulls() {
		t.Fatalf("%s: shape (%q, %v, %d rows, nulls=%v), want (%q, %v, %d rows, nulls=%v)", what,
			got.Name(), got.Type(), got.Len(), got.HasNulls(), want.Name(), want.Type(), want.Len(), want.HasNulls())
	}
	if got.Bytes() != want.Bytes() {
		t.Errorf("%s: Bytes %d, want %d", what, got.Bytes(), want.Bytes())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Value(i) != want.Value(i) || got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s[%d]: %v (null=%v), want %v (null=%v)", what, i, got.Value(i), got.IsNull(i), want.Value(i), want.IsNull(i))
		}
	}
	gi, wi := got.Int64s(), want.Int64s()
	gf, wf := got.Float64s(), want.Float64s()
	gs, ws := got.Strings(), want.Strings()
	gn, wn := got.Nulls(), want.Nulls()
	if len(gi) != len(wi) || len(gf) != len(wf) || len(gs) != len(ws) || len(gn) != len(wn) {
		t.Fatalf("%s: raw vectors hold %d/%d/%d/%d values, want %d/%d/%d/%d", what,
			len(gi), len(gf), len(gs), len(gn), len(wi), len(wf), len(ws), len(wn))
	}
	for i := range wi {
		if gi[i] != wi[i] {
			t.Fatalf("%s: Int64s[%d] = %d, want %d", what, i, gi[i], wi[i])
		}
	}
	for i := range wf {
		if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("%s: Float64s[%d] = %v, want %v", what, i, gf[i], wf[i])
		}
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: Strings[%d] = %q, want %q", what, i, gs[i], ws[i])
		}
	}
	for i := range wn {
		if gn[i] != wn[i] {
			t.Fatalf("%s: Nulls[%d] = %v, want %v", what, i, gn[i], wn[i])
		}
	}
}

func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d cols x %d rows, want %d x %d", what, got.NumCols(), got.NumRows(), want.NumCols(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		sameColumn(t, what+" col "+want.ColAt(c).Name(), got.ColAt(c), want.ColAt(c))
	}
}

// FuzzRunColumn: a column in constant-run form reads exactly as its
// expansion does. The input picks a type, up to eight source values with
// nulls, and a list of (row, count) runs — counts of zero, a single run and
// no run at all included; Repeat of it must equal Gather over the expanded
// selection through every Column method and, beside a flat column in a
// batch, through Batch.Range, Slice, Gather and AppendBatch — both before
// any reader has expanded it and after.
func FuzzRunColumn(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0, 5, 1, 0, 2, 9, 1, 1}, uint8(2), uint8(11))
	f.Add(uint8(1), uint8(1), []byte{0, 200}, uint8(0), uint8(255))    // a single run
	f.Add(uint8(2), uint8(11), []byte{7, 0, 3, 0}, uint8(0), uint8(0)) // only zero-length runs, over a source with a null
	f.Add(uint8(3), uint8(2), []byte{}, uint8(1), uint8(1))            // no run
	f.Add(uint8(4), uint8(5), []byte{4, 1, 4, 1, 3, 2, 0, 33, 1, 64}, uint8(30), uint8(70))
	f.Fuzz(func(t *testing.T, typ, nvals uint8, runs []byte, a, b uint8) {
		src := New("m", Type(typ%5))
		for v := 0; v < 1+int(nvals%8); v++ {
			switch {
			case v%3 == 2 && nvals >= 8:
				src.AppendNull()
			case src.Type() == Float64:
				src.AppendFloat64(float64(v) - 2.5)
			case src.Type() == String:
				src.AppendString(string(rune('a'+v)) + "x"[:v%2])
			default:
				src.AppendInt64(int64(v*7 - 3))
			}
		}
		var rows []int32
		var counts []int
		var sel []int32
		for i := 0; i+1 < len(runs) && len(sel) < 4096; i += 2 {
			r, n := int32(int(runs[i])%src.Len()), int(runs[i+1])%70
			rows, counts = append(rows, r), append(counts, n)
			for j := 0; j < n; j++ {
				sel = append(sel, r)
			}
		}
		want := src.Gather(sel)
		n := want.Len()
		lo, hi := 0, 0
		if n > 0 {
			lo, hi = int(a)%(n+1), int(b)%(n+1)
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		var pick []int32 // an arbitrary, repeating, unordered selection
		for i := 0; n > 0 && i < int(a)%17; i++ {
			pick = append(pick, int32((i*int(b)+int(a))%n))
		}
		again := make([]int, len(pick)) // counts for a Repeat of the run form itself
		for i := range again {
			again[i] = (i + int(a)) % 3
		}
		other := make([]float64, n)
		for i := range other {
			other[i] = float64(i)
		}

		run := src.Repeat(rows, counts)
		for _, state := range []string{"unexpanded", "expanded"} {
			vals, ends, ok := run.Runs()
			if !ok || vals.Len() != len(ends) || (n > 0 && int(ends[len(ends)-1]) != n) || (n == 0 && len(ends) != 0) {
				t.Fatalf("%s: Runs() = %d values, ends %v, ok=%v for %d rows", state, vals.Len(), ends, ok, n)
			}
			for x := 1; x < len(ends); x++ {
				if ends[x] <= ends[x-1] {
					t.Fatalf("%s: run ends %v are not strictly ascending", state, ends)
				}
			}
			if _, _, flat := want.Runs(); flat {
				t.Fatal("Gather returned a column in run form")
			}
			sameColumn(t, state+" Range", run.Range(lo, hi), want.Range(lo, hi))
			sameColumn(t, state+" Slice", run.Slice(hi), want.Slice(hi))
			sameColumn(t, state+" WithName", run.WithName("renamed"), want.WithName("renamed"))
			sameColumn(t, state+" Range of Range", run.Range(lo, n).Range(0, hi-lo), want.Range(lo, n).Range(0, hi-lo))
			sameColumn(t, state+" Gather", run.Gather(pick), want.Gather(pick))
			sameColumn(t, state+" Repeat", run.Repeat(pick, again), want.Repeat(pick, again))
			gotApp, wantApp := New("m", src.Type()), New("m", src.Type())
			for _, part := range []*Column{run.Range(lo, hi), run} {
				if err := gotApp.AppendColumn(part); err != nil {
					t.Fatal(err)
				}
			}
			for _, part := range []*Column{want.Range(lo, hi), want} {
				if err := wantApp.AppendColumn(part); err != nil {
					t.Fatal(err)
				}
			}
			sameColumn(t, state+" AppendColumn", gotApp, wantApp)

			gb := MustNewBatch(run, NewFloat64s("d", other))
			wb := MustNewBatch(want, NewFloat64s("d", other))
			sameBatch(t, state+" Batch.Range", gb.Range(lo, hi), wb.Range(lo, hi))
			sameBatch(t, state+" Batch.Slice", gb.Slice(lo), wb.Slice(lo))
			sameBatch(t, state+" Batch.Gather", gb.Gather(pick), wb.Gather(pick))
			ga, wa := gb.Gather(nil), wb.Gather(nil)
			if err := ga.AppendBatch(gb.Range(lo, hi)); err != nil {
				t.Fatal(err)
			}
			if err := wa.AppendBatch(wb.Range(lo, hi)); err != nil {
				t.Fatal(err)
			}
			sameBatch(t, state+" Batch.AppendBatch", ga, wa)
			if gb.Bytes() != wb.Bytes() {
				t.Errorf("%s: Batch.Bytes %d, want %d", state, gb.Bytes(), wb.Bytes())
			}

			// Last, the whole column through the raw vectors: this is what
			// expands it for the second pass.
			sameColumn(t, state, run, want)
		}
	})
}

// TestRunColumnSharedAcrossGoroutines hands one column in run form — and a
// renamed copy, which shares its runs — to eight goroutines that read it
// every way at once. The operator-at-a-time reference and the result cache
// both share batches across goroutines, so the one lazy expansion must be
// safe to trigger from all of them; run under -race.
func TestRunColumnSharedAcrossGoroutines(t *testing.T) {
	src := NewStrings("F.station", []string{"ISK", "HGN", "DBN"})
	run := src.Repeat([]int32{0, 1, 2, 1}, []int{1000, 1, 4000, 3000})
	want := src.Gather(append(append(append(make([]int32, 1000), 1), repeated(2, 4000)...), repeated(1, 3000)...)).Strings()
	renamed := run.WithName("station")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := run
			if g%2 == 1 {
				c = renamed
			}
			for i := g; i < len(want); i += 97 {
				if v := c.Value(i); v.S != want[i] {
					t.Errorf("goroutine %d: Value(%d) = %q, want %q", g, i, v.S, want[i])
				}
			}
			if part := c.Range(500+g, 6000).Strings(); part[0] != want[500+g] || len(part) != 5500-g {
				t.Errorf("goroutine %d: Range(%d, 6000) = %d rows starting %q", g, 500+g, len(part), part[0])
			}
			strs := c.Strings()
			if len(strs) != len(want) {
				t.Errorf("goroutine %d: Strings() holds %d values, want %d", g, len(strs), len(want))
				return
			}
			for i := range want {
				if strs[i] != want[i] {
					t.Errorf("goroutine %d: Strings()[%d] = %q, want %q", g, i, strs[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if &run.Strings()[0] != &renamed.Strings()[0] {
		t.Error("a renamed copy expanded a second time")
	}
}

func repeated(v int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

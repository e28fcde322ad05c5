package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/sql"
)

// FuzzRadixSortOracle feeds arbitrary key vectors (with nulls and both
// sort directions) through the key-specialized radix sort and asserts the
// permutation equals the sort.SliceStable comparator oracle's. Each row
// consumes 9 input bytes: a little-endian int64 key and a flags byte
// (low bit: null).
func FuzzRadixSortOracle(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 1, // null
		5, 0, 0, 0, 0, 0, 0, 0, 0, // 5
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, // -1
		5, 0, 0, 0, 0, 0, 0, 0, 0, // duplicate 5 (stability)
		0, 0, 0, 0, 0, 0, 0, 0x80, 0, // MinInt64
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, // MaxInt64
	}, true)
	f.Fuzz(func(t *testing.T, data []byte, desc bool) {
		n := len(data) / 9
		if n > 4096 {
			n = 4096
		}
		if n == 0 {
			return
		}
		ints := make([]int64, n)
		var nulls []bool
		for i := 0; i < n; i++ {
			rec := data[i*9 : (i+1)*9]
			ints[i] = int64(binary.LittleEndian.Uint64(rec))
			if rec[8]&1 != 0 {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				ints[i] = 0 // nulls store zero, like the column layer
			}
		}
		k := sortKeyData{desc: desc, typ: column.Int64, ints: ints, nulls: nulls}
		radixSel := selAll(n)
		radixSortInts(context.Background(), &k, radixSel)
		cmpSel := selAll(n)
		comparatorSortSel(context.Background(), []sortKeyData{k}, cmpSel)
		for i := range radixSel {
			if radixSel[i] != cmpSel[i] {
				t.Fatalf("desc=%v: radix and comparator permutations diverge at %d: %d vs %d\nradix: %v\ncmp:   %v",
					desc, i, radixSel[i], cmpSel[i], radixSel, cmpSel)
			}
		}
		// The radix result must actually be sorted and stable.
		for i := 1; i < n; i++ {
			a, z := int(radixSel[i-1]), int(radixSel[i])
			if c := k.compareRows(a, z); (!desc && c > 0) || (desc && c < 0) {
				t.Fatalf("desc=%v: out of order at %d: rows %d,%d", desc, i, a, z)
			} else if c == 0 && a > z {
				t.Fatalf("desc=%v: stability violated at %d: rows %d,%d", desc, i, a, z)
			}
		}
	})
}

// FuzzSpillRowCodec round-trips the spill-file row codec both ways:
// arbitrary bytes decoded as a spill stream must never panic and the
// successfully decoded prefix must re-encode to exactly the consumed bytes
// (the format is canonical); records synthesized from the input must
// encode and decode back bit-identically with a clean EOF.
func FuzzSpillRowCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendSpillRecord(appendSpillRecord(nil, 7, 0xDEADBEEF, []byte("i\x01\x02\x03\x04\x05\x06\x07\x08")), -1, 0, nil))
	f.Add(appendSpillRecord(nil, 3, 9, bytes.Repeat([]byte{0xAA}, 40))[:20])  // truncated key
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}) // absurd key length
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode arbitrary bytes; re-encode the valid prefix.
		sr := newSpillReader("fuzz", bytes.NewReader(data))
		var reenc []byte
		var consumed int64
		for {
			row, hash, key, err := sr.next()
			if err != nil {
				break // io.EOF at a record boundary or a corruption error
			}
			reenc = appendSpillRecord(reenc, row, hash, key)
			consumed = sr.off
		}
		if !bytes.Equal(reenc, data[:consumed]) {
			t.Fatalf("decoded prefix does not re-encode canonically:\nin:  %x\nout: %x", data[:consumed], reenc)
		}

		// Synthesize records from the input and round-trip them.
		type rec struct {
			row  int32
			hash uint64
			key  []byte
		}
		var recs []rec
		var enc []byte
		for i := 0; i+13 <= len(data) && len(recs) < 64; {
			klen := int(data[i] % 32)
			if i+13+klen > len(data) {
				break
			}
			r := rec{
				row:  int32(binary.LittleEndian.Uint32(data[i+1 : i+5])),
				hash: binary.LittleEndian.Uint64(data[i+5 : i+13]),
				key:  data[i+13 : i+13+klen],
			}
			recs = append(recs, r)
			enc = appendSpillRecord(enc, r.row, r.hash, r.key)
			i += 13 + klen
		}
		sr = newSpillReader("fuzz2", bytes.NewReader(enc))
		for i, want := range recs {
			row, hash, key, err := sr.next()
			if err != nil {
				t.Fatalf("record %d of %d: %v", i, len(recs), err)
			}
			if row != want.row || hash != want.hash || !bytes.Equal(key, want.key) {
				t.Fatalf("record %d: got (%d, %x, %x), want (%d, %x, %x)", i, row, hash, key, want.row, want.hash, want.key)
			}
		}
		if _, _, _, err := sr.next(); err != io.EOF {
			t.Fatalf("want io.EOF after %d records, got %v", len(recs), err)
		}
	})
}

// FuzzAggSinkCuts feeds an AggSink arbitrary float/int/null vectors cut into
// arbitrary morsels under arbitrary ascending selection vectors, grouped by
// nothing, by a flat key or by the same key in run form, and requires its
// output to equal, bit for bit, the row walk of Aggregate over the selected
// rows gathered into one flat batch — or both to fail with the same error.
// Each row consumes 2 input bytes. The value byte's top three bits pick a
// class — 1: NULL, 2: NaN, 3: a fraction, 4: a huge magnitude that
// overflows the sums (an integer SUM then fails), otherwise a small
// integer — and its low five the magnitude. The flags byte: bit 0 the row
// is selected, bit 1 a morsel ends after it, bit 2 a new key run starts at
// it, bits 3-4 that run's key (3 is the NULL key). mode%3 picks the
// grouping, mode/3%2 whether morsels carry a selection at all, and mode/6%2
// whether each morsel's selection is filled to one contiguous range (what a
// time-window filter leaves). The specs repeat arguments in and out of
// order, so slots are shared; when the integer SUM overflows, the specs
// without it are checked again, and any other error fails the test.
func FuzzAggSinkCuts(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	// A NaN at the head of the second and third morsels, bounds behind it.
	f.Add([]byte{21, 1, 21, 3, 0x40, 1, 17, 1, 25, 7, 0x40, 13, 0x20, 1, 0x7f, 0, 0x85, 9}, uint8(0))
	f.Add([]byte{21, 1, 21, 3, 0x40, 1, 17, 1, 25, 7, 0x40, 13, 0x20, 1, 0x7f, 0, 0x85, 9}, uint8(5))
	// 32,768 fives with NaN at row 16,384 and a 1 behind it: the input the
	// 16,384-row reduction tree answered MIN = 5 for.
	boundary := bytes.Repeat([]byte{21, 1}, 32_768)
	boundary[2*16_384], boundary[2*16_385] = 0x40, 17
	f.Add(boundary, uint8(0))
	// Null-free, so fold's typed loops run: sparse selections, then one
	// filled to ranges.
	f.Add([]byte{21, 1, 22, 0, 23, 1, 24, 3, 25, 1, 26, 0, 27, 1}, uint8(3))
	f.Add([]byte{21, 1, 22, 0, 23, 1, 24, 3, 25, 1, 26, 0, 27, 1}, uint8(11))
	// Contiguous selections; a NaN first in a morsel.
	f.Add([]byte{21, 0, 21, 1, 0x40, 1, 17, 3, 25, 1, 0x40, 1, 0x20, 0, 0x7f, 1, 0x85, 9}, uint8(9))
	f.Add([]byte{21, 0, 21, 1, 0x40, 1, 17, 3, 25, 5, 0x40, 13, 0x20, 0, 0x7f, 1, 0x85, 9}, uint8(11))
	// 3 × 15<<58 overflows the integer SUM; 3 × -16<<58 + 2 × 15<<58 wraps
	// and comes back, exact.
	f.Add([]byte{0x9f, 1, 0x9f, 1, 0x9f, 1}, uint8(0))
	f.Add([]byte{0x80, 1, 0x80, 3, 0x80, 1, 0x9f, 1, 0x9f, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		n := min(len(data)/2, 40_000)
		fls, ints, nulls := make([]float64, n), make([]int64, n), make([]bool, n)
		keys := column.New("k", column.Int64) // one value per key run
		var runRows []int32
		var runCounts []int
		var sel []int32
		for i := 0; i < n; i++ {
			v, flags := data[2*i], data[2*i+1]
			small := int64(v&31) - 16
			switch v >> 5 {
			case 1:
				nulls[i] = true
			case 2:
				fls[i], ints[i] = math.NaN(), small
			case 3:
				fls[i], ints[i] = float64(small)/7, small
			case 4:
				fls[i], ints[i] = float64(small)*1e300, small<<58
			default:
				fls[i], ints[i] = float64(small), small
			}
			if i == 0 || flags&4 != 0 {
				if k := int64(flags >> 3 & 3); k == 3 {
					keys.AppendNull()
				} else {
					keys.AppendInt64(k)
				}
				runRows, runCounts = append(runRows, int32(len(runRows))), append(runCounts, 0)
			}
			runCounts[len(runCounts)-1]++
			if flags&1 != 0 {
				sel = append(sel, int32(i))
			}
		}
		if mode/6%2 == 1 { // fill each morsel's selection from its first to its last row
			var filled []int32
			for a := 0; a < len(sel); {
				end := int(sel[a]) // the last row of sel[a]'s morsel
				for end < n-1 && data[2*end+1]&2 == 0 {
					end++
				}
				b := a
				for b < len(sel) && int(sel[b]) <= end {
					b++
				}
				for r := sel[a]; r <= sel[b-1]; r++ {
					filled = append(filled, r)
				}
				a = b
			}
			sel = filled
		}
		fc, ic := column.NewFloat64s("f", fls), column.NewInt64s("i", ints)
		if slices.Contains(nulls, true) { // else no null vector: fold's typed loops
			fc.SetNulls(nulls)
			ic.SetNulls(nulls)
		}
		runKey := keys.Repeat(runRows, runCounts)
		flat := column.MustNewBatch(fc, ic, column.NewInt64s("k", runKey.Int64s()))
		flat.ColAt(2).SetNulls(runKey.Nulls())

		in, groupBy := flat, []sql.Expr{&sql.ColumnRef{Name: "k"}}
		switch mode % 3 {
		case 0:
			groupBy = nil
		case 2:
			in = column.MustNewBatch(fc, ic, keys.Repeat(runRows, runCounts))
		}
		withSel := mode/3%2 == 1
		arg := func(name string) sql.Expr { return &sql.ColumnRef{Name: name} }
		aggs := []AggSpec{
			{Func: "COUNT", Star: true, OutName: "n"},
			{Func: "SUM", Arg: arg("f"), OutName: "sum_f"},
			{Func: "COUNT", Arg: arg("f"), OutName: "cnt_f"},
			{Func: "AVG", Arg: arg("f"), OutName: "avg_f"},
			{Func: "MIN", Arg: arg("f"), OutName: "min_f"},
			{Func: "MAX", Arg: arg("f"), OutName: "max_f"},
			{Func: "COUNT", Arg: arg("f"), Distinct: true, OutName: "dist_f"},
			{Func: "SUM", Arg: arg("f"), Distinct: true, OutName: "dsum_f"},
			{Func: "MIN", Arg: arg("i"), OutName: "min_i"},
			{Func: "SUM", Arg: arg("i"), OutName: "sum_i"},
			{Func: "AVG", Arg: arg("i"), OutName: "avg_i"},
			{Func: "SUM", Arg: arg("f"), OutName: "sum_f2"},
			{Func: "MAX", Arg: arg("i"), OutName: "max_i"},
		}
		live := flat
		if withSel {
			live = flat.Gather(sel)
		}
		for pass, aggs := range [][]AggSpec{aggs, slices.Delete(slices.Clone(aggs), 9, 10)} {
			ref, refErr := Aggregate(live, groupBy, aggs)
			out, err := sinkCuts(in, data, groupBy, aggs, withSel, sel)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("mode %d, %d rows: the sink fails with %v, the row walk with %v", mode, n, err, refErr)
			}
			if err != nil && pass == 0 && strings.Contains(err.Error(), "overflows int64") {
				continue // the SUM(i) overflow: check the rest without it
			}
			if err != nil {
				t.Fatalf("mode %d, %d rows, pass %d: %v", mode, n, pass, err)
			}
			if got, want := renderBits(out), renderBits(ref); got != want {
				t.Fatalf("mode %d, %d rows: the sink diverged from the row walk\nwant:\n%s\ngot:\n%s", mode, n, want, got)
			}
			break
		}
	})
}

// sinkCuts folds in through an AggSink, cutting a morsel after each row
// whose flags byte in data has bit 1 set and, withSel, handing each morsel
// its part of sel.
func sinkCuts(in *column.Batch, data []byte, groupBy []sql.Expr, aggs []AggSpec, withSel bool, sel []int32) (*column.Batch, error) {
	n := in.NumRows()
	sink, err := NewAggSink(in.Range(0, 0), groupBy, aggs, nil)
	if err != nil {
		return nil, err
	}
	p := 0 // sel[p:] are the selected rows at or past lo
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && data[2*hi-1]&2 == 0 {
			hi++
		}
		m := Morsel{B: in.Range(lo, hi)}
		if withSel {
			m.Sel = []int32{}
			for ; p < len(sel) && int(sel[p]) < hi; p++ {
				m.Sel = append(m.Sel, sel[p]-int32(lo))
			}
		}
		if err := sink.Consume(m); err != nil {
			return nil, err
		}
		lo = hi
	}
	return sink.Finish()
}

package etl

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/recycler"
	"repro/internal/sql"
)

// FuzzSampleWindow holds the record-edge cut to the per-sample filter it
// replaces: for any record (start, rate, n) and window [lo, hi], the samples
// appendSegments delivers are exactly those whose time, as sampleTimes
// generates it for the whole record, lies in the window — in order, as
// maximal stretches, with the values segValues lays out beside them and the
// times sampleTimes generates for a stretch bit-identical to the whole
// record's. Where windowRange answers (no overflow), the kept set is the
// single range it returns. Rates of zero, below zero, NaN and infinity,
// empty records, starts near either int64 limit and empty or inverted
// windows are all in the corpus.
func FuzzSampleWindow(f *testing.F) {
	// The named corpus in testdata/fuzz/FuzzSampleWindow holds the edge
	// cases; these seeds are the ordinary ones: a 40 Hz record cut at both
	// edges, wholly inside, and at one exact sample time.
	const day = int64(1263254400000000000) // 2010-01-12T00:00:00Z
	f.Add(day, 40.0, uint16(400), day+2_512_345_678, day+7_000_000_000)
	f.Add(day, 40.0, uint16(400), day-1, day+10_000_000_000)
	f.Add(day, 40.0, uint16(400), day+25_000_000, day+25_000_000)

	f.Fuzz(func(t *testing.T, start int64, rate float64, n uint16, lo, hi int64) {
		count := int(n) % 4096
		ent := &recycler.Entry{Start: start, Rate: rate, Values: make([]float64, count)}
		for i := range ent.Values {
			ent.Values[i] = float64(i)
		}
		times := make([]int64, count)
		sampleTimes(times, start, rate, 0)
		var want []float64
		for i, tm := range times {
			if lo <= tm && tm <= hi {
				want = append(want, float64(i))
			}
		}

		segs := appendSegments(nil, 7, ent, &plan.SampleWindow{Lo: lo, Hi: hi})
		var got []float64
		for x, sg := range segs {
			if sg.row != 7 || sg.ent != ent || sg.a < 0 || sg.a >= sg.b || sg.b > count {
				t.Fatalf("segment %d = [%d, %d) of %d samples", x, sg.a, sg.b, count)
			}
			if x > 0 && sg.a <= segs[x-1].b {
				t.Fatalf("segments %d and %d are not disjoint, ordered and maximal: [%d, %d) then [%d, %d)",
					x-1, x, segs[x-1].a, segs[x-1].b, sg.a, sg.b)
			}
			part := make([]int64, sg.b-sg.a)
			sampleTimes(part, start, rate, sg.a)
			for k, tm := range part {
				if tm != times[sg.a+k] {
					t.Fatalf("time of sample %d generated from %d is %d, from 0 it is %d", sg.a+k, sg.a, tm, times[sg.a+k])
				}
			}
			got = append(got, ent.Values[sg.a:sg.b]...)
		}
		if len(got) != len(want) {
			t.Fatalf("window [%d, %d] keeps %d of %d samples, the per-sample filter %d", lo, hi, len(got), count, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kept sample %d is #%v, the per-sample filter's #%v", i, got[i], want[i])
			}
		}
		laid := segValues(segs, len(want))
		if len(laid) != len(want) {
			t.Fatalf("segValues lays out %d values, want %d", len(laid), len(want))
		}
		for i := range want {
			if laid[i] != want[i] {
				t.Fatalf("segValues[%d] = %v, want %v", i, laid[i], want[i])
			}
		}

		if a, b, ok := windowRange(start, rate, count, lo, hi); ok {
			if b-a != len(want) || (len(want) > 0 && (float64(a) != want[0] || float64(b-1) != want[len(want)-1])) {
				t.Fatalf("windowRange = [%d, %d), the per-sample filter keeps %v", a, b, want)
			}
		}
		if whole := appendSegments(nil, 7, ent, nil); (count == 0) != (len(whole) == 0) || (count > 0 && (whole[0].a != 0 || whole[0].b != count)) {
			t.Fatalf("without a window the record is %v, want [0, %d)", whole, count)
		}
	})
}

// FuzzZoneAggregate holds an ungrouped aggregate that takes the records its
// predicates wholly admit from their zones to the one that decodes every
// record, bit for bit: AVG, MIN, MAX, COUNT(*) and SUM of D.sample_value
// over a series of records, under a random sample window, an optional value
// comparison, a gain (powers of two and others) and an optional clip. The
// zone side is prepare's: zoneAnswer over each record's zone entry as runOut
// collects it, the answered records folded into the sink as one partial
// (AggSink.FoldPartial), the others delivered as rows. The decoded side
// folds every record's passing rows. A block of up to 1,100 records of 4,096
// equal samples puts sums near 2⁵³ raw units, where SUM must be answered
// only while it stays exact and the zone side otherwise decodes (the
// partial is refused).
func FuzzZoneAggregate(f *testing.F) {
	some := func(vs ...int32) []byte {
		raw := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
		}
		return raw
	}
	small := some(3, -7, 12, 0, 5, 1000, -1000, 42, 17, -3, 8, 9)
	const sec = int64(time.Second)
	f.Add(small, uint8(3), uint16(0), int32(0), uint8(0), false, int64(0), 100*sec, uint8(6), 0.0)
	f.Add(small, uint8(3), uint16(0), int32(0), uint8(1), false, 25*sec/1000, 200*sec/1000, uint8(4), 0.0)
	f.Add(small, uint8(2), uint16(0), int32(0), uint8(0), false, int64(0), 150*sec/1000, uint8(6), 0.0) // a record cut at its end only
	f.Add(small, uint8(1), uint16(5), int32(-9), uint8(5), true, int64(0), 1000*sec, uint8(5), -5.0)
	f.Add(small, uint8(2), uint16(40), int32(77), uint8(6), false, 10*sec, 50*sec, uint8(6), 0.0)
	for _, replicas := range []uint16{1023, 1024, 1025} { // 4096 · replicas · 2³¹ around 2⁵³
		f.Add(small, uint8(2), replicas, int32(math.MaxInt32), uint8(0), false, int64(0), int64(1<<50), uint8(6), 0.0)
		f.Add(small, uint8(2), replicas, int32(math.MinInt32), uint8(2), false, int64(-1), int64(1<<50), uint8(3), 0.0)
	}

	gains := []float64{1, 0.5, 0.25, 2, 0x1p-30, 0.3, 3, 1e-300}
	aggs := []exec.AggSpec{
		{Func: "AVG", Arg: &sql.ColumnRef{Name: "D.sample_value"}, OutName: "avg"},
		{Func: "MIN", Arg: &sql.ColumnRef{Name: "D.sample_value"}, OutName: "min"},
		{Func: "MAX", Arg: &sql.ColumnRef{Name: "D.sample_value"}, OutName: "max"},
		{Func: "COUNT", Star: true, OutName: "count"},
		{Func: "SUM", Arg: &sql.ColumnRef{Name: "D.sample_value"}, OutName: "sum"},
	}
	proto := column.MustNewBatch(column.NewFloat64s("D.sample_value", nil))

	f.Fuzz(func(t *testing.T, raw []byte, nrec uint8, bulk uint16, amp int32, gainSel uint8, clip bool, lo, hi int64, opByte uint8, lit float64) {
		// The series: the small records cut from raw, with the block of
		// equal-sample records in their middle, back to back at 40 Hz.
		var recs [][]int32
		samples := make([]int32, len(raw)/4)
		for i := range samples {
			samples[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		k := int(nrec)%8 + 1
		for r := 0; r < k; r++ {
			recs = append(recs, samples[r*len(samples)/k:(r+1)*len(samples)/k])
		}
		block := make([]int32, 4096)
		for i := range block {
			block[i] = amp
		}
		for r := 0; r < int(bulk)%1101; r++ {
			recs = slices.Insert(recs, k/2+r, block)
		}
		e := &Engine{opts: Options{Gain: gains[int(gainSel)%len(gains)]}}
		if clip {
			e.opts.ClipAbs = 1000
		}
		var prune *plan.PruneRange
		var preds []sql.Expr
		if op := int(opByte) % 7; op < 6 {
			preds = []sql.Expr{&sql.Binary{Op: sql.BinaryOp(op), L: &sql.ColumnRef{Name: "D.sample_value"},
				R: &sql.Literal{Val: column.Value{Type: column.Float64, F: lit}}}}
			prune = plan.CompilePrune(preds)
		}
		const day = int64(1263254400000000000) // 2010-01-12T00:00:00Z
		win := &plan.SampleWindow{Lo: day + lo, Hi: day + hi}

		za := e.newZoneAnswer(plan.ZoneAnswer{"COUNT", "MIN", "MAX", "SUM"})
		if frac, _ := math.Frexp(e.opts.Gain); (za != nil) != (!clip && frac == 0.5) {
			t.Fatalf("gain %g clip %v: zone answer offered = %v", e.opts.Gain, clip, za != nil)
		}
		if za == nil {
			return
		}
		decoded, err := exec.NewAggSink(proto, nil, aggs, nil)
		if err != nil {
			t.Fatal(err)
		}
		answered, err := exec.NewAggSink(proto, nil, aggs, nil)
		if err != nil {
			t.Fatal(err)
		}
		// One conversion and one predicate evaluation per distinct record:
		// the block's records share theirs.
		type conv struct {
			vals []float64
			pass []bool
			zone catalog.ZoneEntry
		}
		convert := func(rec []int32) conv {
			c := conv{vals: make([]float64, len(rec))}
			c.zone = e.convert(c.vals, rec)
			if c.pass, err = passes(c.vals, preds); err != nil {
				t.Fatal(err)
			}
			return c
		}
		blockConv := convert(block)
		var delivered []exec.Morsel
		start := day
		for x, rec := range recs {
			if x > 0 {
				start = sampleTime(start, 40, len(recs[x-1]))
			}
			c := blockConv
			if len(rec) == 0 || &rec[0] != &block[0] {
				c = convert(rec)
			}
			vals, pass, z := c.vals, c.pass, c.zone
			z.Start, z.Rate = start, 40
			sel := []int32{} // never nil: a nil selection is every row
			for i := range rec {
				if tm := sampleTime(start, 40, i); pass[i] && win.Lo <= tm && tm <= win.Hi {
					sel = append(sel, int32(i))
				}
			}
			m := exec.Morsel{B: column.MustNewBatch(column.NewFloat64s("D.sample_value", vals)), Sel: sel}
			if err := decoded.Consume(m); err != nil {
				t.Fatal(err)
			}
			switch {
			case prune.Admit(z) == plan.AdmitNone:
				if len(sel) > 0 {
					t.Fatalf("zone %+v pruned under %v but %d samples pass", z, prune, len(sel))
				}
			case za.take(z, true, prune.Admit(z) == plan.AdmitAll, win):
				if len(sel) != len(rec) {
					t.Fatalf("zone %+v answered under %v and window %+v but %d of %d samples pass", z, prune, win, len(sel), len(rec))
				}
			default:
				delivered = append(delivered, m)
			}
		}
		part, ok := za.partial()
		if !ok {
			return // the zone side decodes every record: the decoded side
		}
		answered.FoldPartial(part)
		for _, m := range delivered {
			if err := answered.Consume(m); err != nil {
				t.Fatal(err)
			}
		}
		want, err := decoded.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err := answered.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < want.NumCols(); c++ {
			w, g := want.ColAt(c).Value(0), got.ColAt(c).Value(0)
			if w.Null != g.Null || w.I != g.I || math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("%s: answered from zones %v, decoded %v (partial %+v, gain %g, clip %v)", want.ColAt(c).Name(), g, w, part, e.opts.Gain, clip)
			}
		}
	})
}

// passes evaluates the conjuncts preds over one record's values.
func passes(vals []float64, preds []sql.Expr) ([]bool, error) {
	out := make([]bool, len(vals))
	for i := range out {
		out[i] = true
	}
	b := column.MustNewBatch(column.NewFloat64s("D.sample_value", vals))
	for _, p := range preds {
		c, err := exec.Eval(p, b)
		if err != nil {
			return nil, err
		}
		for i, v := range c.Int64s() {
			out[i] = out[i] && v != 0 && !c.IsNull(i)
		}
	}
	return out, nil
}

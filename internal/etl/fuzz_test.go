package etl

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/recycler"
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

package plan

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/sql"
)

// FuzzZoneMapPrune checks the soundness of both of Admit's claims against
// the real filter kernels: whenever the compiled PruneRange rejects a
// record's zone statistic (AdmitNone), executing the predicate over the
// record's actual samples must select zero rows, and whenever it admits the
// record wholly (AdmitAll), every sample. Values are raw float64 bit patterns, so NaNs and
// infinities (where the kernels' NaN convention bites) are exercised.
func FuzzZoneMapPrune(f *testing.F) {
	some := func(vs ...float64) []byte {
		raw := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return raw
	}
	f.Add(some(1, 2, 3), byte(4), 100.0)                     // > 100: prunable
	f.Add(some(-5, math.NaN(), 7), byte(0), 0.0)             // = 0 with a NaN sample
	f.Add(some(math.Inf(1), math.Inf(-1)), byte(2), 0.0)     // infinities, < 0
	f.Add(some(42), byte(1), 42.0)                           // <> on the boundary
	f.Add(some(math.NaN(), math.NaN()), byte(5), math.NaN()) // all NaN vs NaN literal
	f.Add(some(0.0, math.Copysign(0, -1)), byte(3), 0.0)     // signed zeros, <= 0

	f.Fuzz(func(t *testing.T, raw []byte, opByte byte, lit float64) {
		n := len(raw) / 8
		if n == 0 || n > 4096 {
			return
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		pred := &sql.Binary{
			Op: sql.BinaryOp(int(opByte) % 6),
			L:  &sql.ColumnRef{Name: "D.sample_value"},
			R:  &sql.Literal{Val: column.Value{Type: column.Float64, F: lit}},
		}
		p := CompilePrune([]sql.Expr{pred})
		if p == nil {
			t.Fatalf("comparison %s did not compile to a prune range", pred)
		}
		verdict := p.Admit(catalog.CollectZone(vals))
		if verdict == AdmitSome {
			return // pruning makes no claim, nothing to verify
		}
		b, err := column.NewBatch(column.NewFloat64s("D.sample_value", vals))
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Filter(b, []sql.Expr{pred})
		if err != nil {
			t.Fatal(err)
		}
		if verdict == AdmitNone && out.NumRows() != 0 {
			t.Fatalf("zone %+v pruned under %s (%s) but %d of %d samples pass",
				catalog.CollectZone(vals), pred, p, out.NumRows(), n)
		}
		if verdict == AdmitAll && out.NumRows() != n {
			t.Fatalf("zone %+v wholly admitted under %s (%s) but %d of %d samples pass",
				catalog.CollectZone(vals), pred, p, out.NumRows(), n)
		}
	})
}

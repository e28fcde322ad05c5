package plan

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// PruneRange is the zone-map admissibility test compiled from the eligible
// comparison conjuncts over D.sample_value. Admit's verdict on a record's
// zone is AdmitNone when it provably holds no sample that passes every
// conjunct (its run is never read nor decoded), AdmitAll when every sample
// passes every folded conjunct (LazyExtract.ZoneAnswer may take the record
// from its zone; a folded <> rules that out), else AdmitSome. Ineligible
// conjuncts (ORs, arithmetic, other columns) are simply not folded in, so
// the admitted set is always a superset of the qualifying set: pruning can
// only delete work, never rows.
//
// The test mirrors the exec float comparison kernels exactly, including
// their NaN convention (comparisons are phrased via < and >, so Eq/Le/Ge
// hold against NaN while Ne/Lt/Gt do not): NaNPasses tracks whether a NaN
// sample satisfies every folded conjunct, and a zone containing NaNs is
// admitted whenever it does, but never wholly.
type PruneRange struct {
	Lo, Hi         float64
	HasLo, HasHi   bool
	LoOpen, HiOpen bool // strict bound (> / <) rather than inclusive
	AlwaysFalse    bool // some conjunct admits no value at all
	NaNPasses      bool // a NaN sample satisfies every folded conjunct
	NotEqual       bool // some folded conjunct is a <> the interval cannot hold
	folded         int  // conjuncts folded in
}

// Admission is a zone's verdict under a PruneRange: no, some or every
// sample passes.
type Admission int8

const (
	AdmitNone Admission = iota
	AdmitSome
	AdmitAll
)

// CompilePrune folds the eligible conjuncts of dPreds (comparisons of
// D.sample_value against a numeric literal) into a PruneRange. Returns nil
// when nothing eligible constrains the value — callers treat nil as
// "no pruning".
func CompilePrune(dPreds []sql.Expr) *PruneRange {
	p := &PruneRange{NaNPasses: true}
	for _, e := range dPreds {
		b, ok := e.(*sql.Binary)
		if !ok {
			continue
		}
		ref, lit, op, ok := normalizeComparison(b)
		if !ok || ref.Name != "D.sample_value" {
			continue
		}
		if lit.Val.Null {
			// NULL comparisons select nothing (the exec kernels return an
			// empty selection), NaN samples included.
			p.AlwaysFalse = true
			p.NaNPasses = false
			p.folded++
			continue
		}
		if !lit.Val.Type.Numeric() {
			continue // a type mismatch errors at execution; not our concern
		}
		v := lit.Val.AsFloat()
		if math.IsNaN(v) {
			// The kernels phrase every op via < and >, both false against a
			// NaN literal: Eq/Le/Ge pass every value (no constraint), while
			// Lt/Gt/Ne pass none.
			switch op {
			case sql.OpLt, sql.OpGt, sql.OpNe:
				p.AlwaysFalse = true
				p.NaNPasses = false
			}
			p.folded++
			continue
		}
		switch op {
		case sql.OpEq:
			p.addLo(v, false)
			p.addHi(v, false)
		case sql.OpLe:
			p.addHi(v, false)
		case sql.OpGe:
			p.addLo(v, false)
		case sql.OpLt:
			p.addHi(v, true)
			p.NaNPasses = false
		case sql.OpGt:
			p.addLo(v, true)
			p.NaNPasses = false
		case sql.OpNe:
			// No interval constraint, but a NaN sample fails <>.
			p.NaNPasses = false
			p.NotEqual = true
		default:
			continue
		}
		p.folded++
	}
	if p.folded == 0 {
		return nil
	}
	return p
}

// foldsAll reports whether every one of preds is folded into p.
func (p *PruneRange) foldsAll(preds []sql.Expr) bool {
	return len(preds) == 0 || p != nil && p.folded == len(preds)
}

func (p *PruneRange) addLo(v float64, open bool) {
	if !p.HasLo || v > p.Lo || (v == p.Lo && open) {
		p.Lo, p.LoOpen, p.HasLo = v, open, true
	}
}

func (p *PruneRange) addHi(v float64, open bool) {
	if !p.HasHi || v < p.Hi || (v == p.Hi && open) {
		p.Hi, p.HiOpen, p.HasHi = v, open, true
	}
}

// Admit returns the verdict on a record with zone statistic z; nil admits
// every sample.
func (p *PruneRange) Admit(z catalog.ZoneEntry) Admission {
	switch {
	case p == nil:
		return AdmitAll
	case z.NaNs > 0 && p.NaNPasses:
		return AdmitSome
	case p.AlwaysFalse || z.Finite == 0 || !p.aboveLo(z.Max) || !p.belowHi(z.Min) ||
		p.HasLo && p.HasHi && !(p.aboveLo(p.Hi) && p.belowHi(p.Lo)): // Finite 0: only NaNs, which fail here
		return AdmitNone
	case p.NotEqual || z.NaNs+z.Nulls > 0 || !p.aboveLo(z.Min) || !p.belowHi(z.Max):
		return AdmitSome
	}
	return AdmitAll
}

// aboveLo and belowHi report whether v passes the lower and the upper bound.
func (p *PruneRange) aboveLo(v float64) bool { return !p.HasLo || v > p.Lo || !p.LoOpen && v == p.Lo }
func (p *PruneRange) belowHi(v float64) bool { return !p.HasHi || v < p.Hi || !p.HiOpen && v == p.Hi }

// String renders the admissible interval for plan display.
func (p *PruneRange) String() string {
	if p == nil {
		return ""
	}
	if p.AlwaysFalse {
		return "none"
	}
	lo, hi := "(-inf", "+inf)"
	if p.HasLo {
		br := "["
		if p.LoOpen {
			br = "("
		}
		lo = fmt.Sprintf("%s%g", br, p.Lo)
	}
	if p.HasHi {
		br := "]"
		if p.HiOpen {
			br = ")"
		}
		hi = fmt.Sprintf("%g%s", p.Hi, br)
	}
	s := lo + ", " + hi
	if p.NaNPasses {
		s += " or NaN"
	}
	return s
}

// ScanReport carries one lazy extraction's skip accounting to the observer:
// how many runs and records were read versus proven irrelevant or answered by
// the record zone maps, how many came from the recycler, and the samples the
// sample window cut from the records it delivered. Target is "extract".
type ScanReport struct {
	Target          string
	Runs            int64 // coalesced read runs actually planned
	RunsSkipped     int64 // runs deleted by record zone maps
	Records         int64 // records extracted (cache misses)
	RecordsSkipped  int64 // records pruned before ReadAt/decode
	RecordsAnswered int64 `json:",omitempty"` // records answered from zones
	CacheReads      int64 // records served from the recycler cache
	// Window is the extraction's sample window (SampleWindow.String), ""
	// without one; SamplesTrimmed counts the samples of delivered records
	// that fell outside it.
	Window         string `json:",omitempty"`
	SamplesTrimmed int64  `json:",omitempty"`
}

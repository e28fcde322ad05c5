// Package mem implements the execution-memory governor: a budget Ledger
// that operators and caches reserve working-set bytes from, and per-operator
// Grants that bundle those reservations so they release together.
//
// The ledger is pure accounting — it never allocates or frees anything
// itself. Callers reserve an estimate before building a memory-hungry
// structure (a join partition table, the aggregation sink's group table, a
// cache entry) and release it when the structure dies. A reservation that
// would exceed the budget is denied, which is the signal the exec layer's
// spill paths trigger on; the denial itself is recorded so operators can
// report memory pressure even when they degrade gracefully.
//
// Two reservation flavours exist on purpose. TryReserve is the admission
// check: it fails rather than oversubscribe, and the caller must have a
// fallback (spill, decline). Reserve is for a minimum working set that has
// no fallback — e.g. the single spilled partition being rebuilt from disk —
// and always succeeds, letting the high-water mark record the overage
// honestly instead of deadlocking on an impossible budget.
//
// All methods are safe for concurrent use and nil-safe: a nil *Ledger (and
// a nil *Grant) behaves as an unlimited ledger that grants everything and
// records nothing, so callers thread the governor through without
// branching.
//
// Ledgers compose: Child carves a sub-budget out of a parent ledger, so a
// warehouse serving many queries at once can hand each one a fair slice of
// the machine budget. A child's reservations are forwarded to the parent
// (the parent's Used is the whole fleet's footprint), and a reservation is
// denied if it exceeds either the child's own cap or the parent's budget —
// one spilling query exhausts its slice and degrades to disk instead of
// starving its siblings.
package mem

import "sync/atomic"

// Ledger is a byte-budget ledger with atomic reservation accounting.
// A budget <= 0 means unlimited: reservations always succeed but are still
// accounted, so high-water marks stay meaningful without a budget.
type Ledger struct {
	budget  int64
	parent  *Ledger // non-nil for Child ledgers; reservations forward up
	used    atomic.Int64
	high    atomic.Int64
	denials atomic.Int64
	denied  atomic.Int64 // bytes denied
}

// New creates a ledger with the given byte budget (<= 0 = unlimited).
func New(budget int64) *Ledger {
	if budget < 0 {
		budget = 0
	}
	return &Ledger{budget: budget}
}

// Child returns a ledger that enforces its own budget (<= 0 = no cap of
// its own) on top of l's: every reservation made through the child is also
// reserved from l, and succeeds only if both ledgers admit it. Release and
// Close symmetrically return the bytes to both. A nil receiver yields a
// plain ledger with the given budget, so callers need not branch on
// whether a shared ledger exists.
func (l *Ledger) Child(budget int64) *Ledger {
	c := New(budget)
	c.parent = l // nil parent is fine: the child acts as a root ledger
	return c
}

// Limited reports whether the ledger enforces a finite budget anywhere on
// its parent chain.
func (l *Ledger) Limited() bool {
	return l != nil && (l.budget > 0 || l.parent.Limited())
}

// Budget returns the configured budget (0 = unlimited).
func (l *Ledger) Budget() int64 {
	if l == nil {
		return 0
	}
	return l.budget
}

// TryReserve reserves n bytes if they fit in the budget, reporting success.
// A denial is counted; the caller is expected to degrade (spill, decline
// admission) rather than retry blindly.
func (l *Ledger) TryReserve(n int64) bool {
	if l == nil || n <= 0 {
		return true
	}
	for {
		cur := l.used.Load()
		if l.budget > 0 && cur+n > l.budget {
			l.denials.Add(1)
			l.denied.Add(n)
			return false
		}
		if l.used.CompareAndSwap(cur, cur+n) {
			if l.parent != nil && !l.parent.TryReserve(n) {
				// The sub-budget had room but the shared ledger is full
				// (siblings or the cache hold it); roll back and deny.
				l.used.Add(-n)
				l.denials.Add(1)
				l.denied.Add(n)
				return false
			}
			l.raiseHigh(cur + n)
			return true
		}
	}
}

// Reserve reserves n bytes unconditionally — the minimum-working-set path
// for callers that have already degraded as far as they can (one spilled
// partition rebuilt at a time). Overage shows up in the high-water mark.
func (l *Ledger) Reserve(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.raiseHigh(l.used.Add(n))
	l.parent.Reserve(n)
}

// Release returns n reserved bytes to the ledger.
func (l *Ledger) Release(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.used.Add(-n)
	l.parent.Release(n)
}

// Used returns the bytes currently reserved.
func (l *Ledger) Used() int64 {
	if l == nil {
		return 0
	}
	return l.used.Load()
}

// HighWater returns the maximum concurrently reserved bytes seen so far.
func (l *Ledger) HighWater() int64 {
	if l == nil {
		return 0
	}
	return l.high.Load()
}

func (l *Ledger) raiseHigh(v int64) {
	for {
		h := l.high.Load()
		if v <= h || l.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of the ledger counters.
type Snapshot struct {
	Budget      int64 // 0 = unlimited
	Used        int64 // bytes currently reserved
	HighWater   int64 // peak concurrent reservation
	Denials     int64 // TryReserve calls that were denied
	DeniedBytes int64 // total bytes those denials asked for
}

// Snapshot copies the counters.
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	return Snapshot{
		Budget:      l.budget,
		Used:        l.used.Load(),
		HighWater:   l.high.Load(),
		Denials:     l.denials.Load(),
		DeniedBytes: l.denied.Load(),
	}
}

// Grant is one operator's slice of the ledger: reservations made through a
// grant are tracked locally so Close can release whatever is still held,
// whatever error path the operator left by. Safe for concurrent use.
type Grant struct {
	l    *Ledger
	held atomic.Int64
}

// NewGrant opens a grant on the ledger. Nil-safe: a nil ledger yields a nil
// grant, whose methods behave as unlimited.
func (l *Ledger) NewGrant() *Grant {
	if l == nil {
		return nil
	}
	return &Grant{l: l}
}

// Try reserves n bytes through the grant, reporting whether they fit.
func (g *Grant) Try(n int64) bool {
	if g == nil {
		return true
	}
	if !g.l.TryReserve(n) {
		return false
	}
	g.held.Add(n)
	return true
}

// Must reserves n bytes unconditionally (see Ledger.Reserve).
func (g *Grant) Must(n int64) {
	if g == nil {
		return
	}
	g.l.Reserve(n)
	g.held.Add(n)
}

// Release returns n bytes of the grant's holdings to the ledger.
func (g *Grant) Release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.held.Add(-n)
	g.l.Release(n)
}

// Close releases everything the grant still holds. Idempotent.
func (g *Grant) Close() {
	if g == nil {
		return
	}
	if h := g.held.Swap(0); h > 0 {
		g.l.Release(h)
	}
}

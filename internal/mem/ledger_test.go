package mem

import (
	"sync"
	"testing"
)

func TestLedgerReserveReleaseHighWater(t *testing.T) {
	l := New(100)
	if !l.Limited() {
		t.Fatal("ledger with budget 100 should be limited")
	}
	if !l.TryReserve(60) {
		t.Fatal("60 of 100 denied")
	}
	if l.TryReserve(50) {
		t.Fatal("60+50 of 100 granted")
	}
	if !l.TryReserve(40) {
		t.Fatal("60+40 of 100 denied")
	}
	if got := l.Used(); got != 100 {
		t.Fatalf("used = %d, want 100", got)
	}
	l.Release(60)
	if got := l.Used(); got != 40 {
		t.Fatalf("used = %d, want 40", got)
	}
	s := l.Snapshot()
	if s.HighWater != 100 || s.Denials != 1 || s.DeniedBytes != 50 || s.Budget != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestLedgerReserveOverage(t *testing.T) {
	l := New(10)
	l.Reserve(25) // minimum working set: always succeeds
	if got := l.Used(); got != 25 {
		t.Fatalf("used = %d, want 25", got)
	}
	if got := l.HighWater(); got != 25 {
		t.Fatalf("high water = %d, want 25 (overage must be recorded)", got)
	}
}

func TestUnlimitedLedgerStillAccounts(t *testing.T) {
	l := New(0)
	if l.Limited() {
		t.Fatal("budget 0 must mean unlimited")
	}
	if !l.TryReserve(1 << 40) {
		t.Fatal("unlimited ledger denied a reservation")
	}
	if got := l.HighWater(); got != 1<<40 {
		t.Fatalf("high water = %d", got)
	}
}

func TestNilLedgerAndGrant(t *testing.T) {
	var l *Ledger
	if l.Limited() || !l.TryReserve(99) || l.Used() != 0 || l.HighWater() != 0 {
		t.Fatal("nil ledger must act unlimited and record nothing")
	}
	l.Reserve(5)
	l.Release(5)
	if s := l.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	g := l.NewGrant()
	if g != nil {
		t.Fatal("nil ledger must yield nil grant")
	}
	if !g.Try(7) || g.Held() != 0 {
		t.Fatal("nil grant must act unlimited")
	}
	g.Must(3)
	g.Release(1)
	g.Close()
}

func TestGrantCloseReleasesEverything(t *testing.T) {
	l := New(1000)
	g := l.NewGrant()
	if !g.Try(300) {
		t.Fatal("denied")
	}
	g.Must(200)
	g.Release(100)
	if got, want := g.Held(), int64(400); got != want {
		t.Fatalf("held = %d, want %d", got, want)
	}
	if got, want := l.Used(), int64(400); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	g.Close()
	if l.Used() != 0 || g.Held() != 0 {
		t.Fatalf("after close: used=%d held=%d", l.Used(), g.Held())
	}
	g.Close() // idempotent
	if l.Used() != 0 {
		t.Fatal("double close released twice")
	}
}

func TestLedgerConcurrentAccounting(t *testing.T) {
	l := New(0)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			g := l.NewGrant()
			for i := 0; i < iters; i++ {
				g.Try(3)
				g.Release(3)
			}
			g.Close()
		}()
	}
	wg.Wait()
	if got := l.Used(); got != 0 {
		t.Fatalf("used = %d after balanced reserve/release", got)
	}
	if l.HighWater() < 3 {
		t.Fatalf("high water = %d, want >= 3", l.HighWater())
	}
}

func TestChildLedgerSubBudget(t *testing.T) {
	parent := New(1000)
	a := parent.Child(400)
	b := parent.Child(400)

	// A child denies what exceeds its own cap even if the parent has room.
	if a.TryReserve(500) {
		t.Fatal("child admitted past its own cap")
	}
	if !a.TryReserve(400) {
		t.Fatal("child denied a fitting reservation")
	}
	if !b.TryReserve(400) {
		t.Fatal("sibling denied despite parent room")
	}
	// Parent sees the fleet's footprint.
	if got := parent.Used(); got != 800 {
		t.Fatalf("parent used = %d, want 800", got)
	}
	// The parent budget still binds: a third slice cannot push past 1000.
	c := parent.Child(400)
	if c.TryReserve(300) {
		t.Fatal("parent admitted past its budget through a child")
	}
	if c.Used() != 0 {
		t.Fatalf("denied child reservation left %d bytes held", c.Used())
	}
	// Must (minimum working set) overshoots honestly on both ledgers.
	c.Reserve(300)
	if parent.Used() != 1100 || parent.HighWater() < 1100 {
		t.Fatalf("parent used=%d high=%d after Must-overshoot", parent.Used(), parent.HighWater())
	}
	// Releases flow back up.
	a.Release(400)
	b.Release(400)
	c.Release(300)
	if parent.Used() != 0 {
		t.Fatalf("parent used = %d after children released", parent.Used())
	}
}

func TestChildOfNilLedger(t *testing.T) {
	var root *Ledger
	c := root.Child(100)
	if !c.TryReserve(100) || c.TryReserve(1) {
		t.Fatal("child of nil ledger must enforce its own budget only")
	}
	c.Release(100)
	if c.Used() != 0 {
		t.Fatalf("used = %d", c.Used())
	}
	if !c.Limited() {
		t.Fatal("budgeted child should report limited")
	}
	if New(0).Child(0).Limited() {
		t.Fatal("unlimited chain should not report limited")
	}
}

// Held returns the bytes currently held by the grant.
func (g *Grant) Held() int64 {
	if g == nil {
		return 0
	}
	return g.held.Load()
}

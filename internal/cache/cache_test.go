package cache

import (
	"container/list"
	"testing"

	"repro/internal/mem"
)

// FuzzSegments drives one Cache through random admit, lookup,
// burst-of-one-offs, remove and clear sequences over a small key alphabet,
// against a model of which keys were admitted since the last clear. Some
// admissions view one of three shares. After every step: the cost is the
// resident entries' costs plus each share with a resident viewer, counted
// once, and the ledger holds exactly that; probation's part is counted the
// same way and stays within a quarter of the budget unless it holds only
// the entry just admitted; the budget holds; the ghost ring stays within
// its size; every resident key sits in exactly one segment and is found; a
// hit returns the value admitted this generation, and a successful
// admission is resident.
func FuzzSegments(f *testing.F) {
	f.Add(uint16(64), uint16(0), []byte{0, 1, 2, 1, 3, 255, 2, 1, 0, 1, 2, 1})
	f.Add(uint16(20), uint16(12), []byte{0, 1, 5, 2, 10, 3, 15, 4, 2, 1, 4, 0})
	f.Add(uint16(600), uint16(0), []byte{80, 1, 85, 2, 160, 3, 7, 1, 240, 4, 9, 2, 3, 40, 81, 5, 9, 5, 2, 1})
	f.Fuzz(func(t *testing.T, budget, ledgerCap uint16, ops []byte) {
		const alphabet = 24
		ledger := mem.New(int64(ledgerCap))
		c := New[int, int](int64(budget%1024)+1, ledger)
		shares := []*Share{{Cost: 5}, {Cost: 40}, {Cost: 200}}
		admitted := map[int]bool{}
		gen, oneOffs := 0, 0
		value := func(k int) int { return gen<<32 | k }
		admit := func(k int, cost int64, share *Share) {
			if c.Add(k, value(k), cost, share) {
				admitted[k] = true
				if v, ok := c.Get(k, false); !ok || v != value(k) {
					t.Fatalf("key %d admitted but get = %d, %v", k, v, ok)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 5 {
			case 0, 1: // ops from 80 on view share op/80
				var share *Share
				if s := op / 5 / 16; s > 0 {
					share = shares[s-1]
				}
				admit(arg%alphabet, int64(op/5%16)+1, share)
			case 2:
				k := arg % alphabet
				if v, ok := c.Get(k, op/5%2 == 0); ok && (!admitted[k] || v != value(k)) {
					t.Fatalf("get(%d) = %d; admitted since clear: %v, want %d", k, v, admitted[k], value(k))
				}
			case 3:
				for j := 0; j < arg; j++ {
					oneOffs++
					admit(alphabet+oneOffs, 1, nil)
				}
			case 4:
				if op/5%2 == 1 {
					k := arg % alphabet
					c.Remove(k)
					if _, ok := c.Get(k, false); ok {
						t.Fatalf("key %d resident after Remove", k)
					}
					break
				}
				c.Clear()
				gen++
				admitted = map[int]bool{}
				if c.Len() != 0 || len(c.ghostSet) != 0 || c.probation.Len()+c.protected.Len() != 0 {
					t.Fatalf("Clear left %d entries, %d ghosts", c.Len(), len(c.ghostSet))
				}
			}
			checkSegments(t, c, ledger, shares)
		}
	})
}

func checkSegments(t *testing.T, c *Cache[int, int], ledger *mem.Ledger, shares []*Share) {
	t.Helper()
	var cost, probCost int64
	viewers, waiting := map[*Share]int{}, map[*Share]int{}
	seen := map[int]bool{}
	for _, seg := range []struct {
		l    *list.List
		prot bool
	}{{c.probation, false}, {c.protected, true}} {
		for el := seg.l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[int, int])
			if e.prot != seg.prot || c.items[e.key] != el || seen[e.key] {
				t.Fatalf("key %d: prot=%v listed under prot=%v, indexed %v, seen twice %v",
					e.key, e.prot, seg.prot, c.items[e.key] == el, seen[e.key])
			}
			seen[e.key] = true
			cost += e.cost
			if !e.prot {
				probCost += e.cost
			}
			if e.share != nil {
				viewers[e.share]++
				if !e.prot {
					waiting[e.share]++
				}
			}
		}
	}
	for _, s := range shares {
		if s.n != viewers[s] || s.onProbation != waiting[s] {
			t.Fatalf("share of %d: counts %d viewers, %d on probation; listed %d, %d", s.Cost, s.n, s.onProbation, viewers[s], waiting[s])
		}
		if viewers[s] > 0 {
			cost += s.Cost
		}
		if waiting[s] > 0 {
			probCost += s.Cost
		}
	}
	switch {
	case len(seen) != len(c.items):
		t.Fatalf("%d keys indexed, %d listed", len(c.items), len(seen))
	case cost != c.cost || ledger.Used() != c.cost:
		t.Fatalf("resident charge %d, cache says %d, ledger %d", cost, c.cost, ledger.Used())
	case probCost != c.probCost:
		t.Fatalf("probation charge %d, cache says %d", probCost, c.probCost)
	case c.cost > c.budget:
		t.Fatalf("cost %d over budget %d", c.cost, c.budget)
	case c.probCost > c.budget/4 && c.probation.Len() > 1:
		t.Fatalf("probation charges %d over a quarter of %d with %d entries", c.probCost, c.budget, c.probation.Len())
	case len(c.ghostSet) > ghostSlots:
		t.Fatalf("ghost %d (slots %d)", len(c.ghostSet), ghostSlots)
	}
	for k := range c.items {
		if _, ok := c.Get(k, false); !ok {
			t.Fatalf("resident key %d not found", k)
		}
	}
}

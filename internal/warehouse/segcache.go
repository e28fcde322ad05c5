package warehouse

import (
	"container/list"
	"hash/maphash"

	"repro/internal/mem"
)

// segCache is the segmented (2Q) cache of Johnson & Shasha (VLDB 1994). A
// new entry enters a probation FIFO of probationCap entries; a hit promotes
// it to the protected LRU. An entry that falls off probation unreused leaves
// its key hash in a ghostSlots ring, and an admission whose hash is still
// there has proved reuse and goes straight to protected. Entries cost
// against one budget, which takes probation's oldest first and protected's
// least recent only when probation is empty, and against the ledger (nil:
// none). The owner's mutex guards it.
type segCache[K comparable, V any] struct {
	budget, cost        int64 // cost: the resident entries' sum
	evictions, unreused int64 // protected evicted by budget; probation dropped unhit
	ledger              *mem.Ledger
	seed                maphash.Seed

	items                map[K]*list.Element // of *segEntry[K, V]
	probation, protected *list.List          // newest / most recent at the front
	ghost                [ghostSlots]uint64  // hashes of dropped probation keys
	ghostAt              int                 // next ghost slot to write
	ghostSet             map[uint64]int      // hash -> its latest ghost slot
}

const probationCap, ghostSlots = 256, 4096

type segEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
	prot bool
}

func newSegCache[K comparable, V any](budget int64, ledger *mem.Ledger) *segCache[K, V] {
	c := &segCache[K, V]{budget: budget, ledger: ledger, seed: maphash.MakeSeed()}
	c.clear()
	return c
}

// get returns k's value. With use set it counts a use: a probation entry
// moves to protected, a protected one becomes the most recent.
func (c *segCache[K, V]) get(k K, use bool) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	e := el.Value.(*segEntry[K, V])
	if use && e.prot {
		c.protected.MoveToFront(el)
	} else if use {
		c.probation.Remove(el)
		e.prot = true
		c.items[k] = c.protected.PushFront(e)
	}
	return e.val, true
}

// add admits v under k at cost, evicting until it fits the budget, and
// reports false when the cost exceeds the whole budget or the ledger
// declines it. A resident k keeps its value and counts a use instead.
func (c *segCache[K, V]) add(k K, v V, cost int64) bool {
	if _, ok := c.get(k, true); ok || cost > c.budget {
		return ok
	}
	for c.cost+cost > c.budget && len(c.items) > 0 {
		if el := c.probation.Back(); el != nil {
			c.forget(el)
		} else {
			c.unlink(c.protected.Back())
			c.evictions++
		}
	}
	if !c.ledger.TryReserve(cost) {
		return false
	}
	_, seen := c.ghostSet[maphash.Comparable(c.seed, k)]
	e := &segEntry[K, V]{key: k, val: v, cost: cost, prot: seen}
	if c.cost += cost; seen {
		c.items[k] = c.protected.PushFront(e)
	} else if c.items[k] = c.probation.PushFront(e); c.probation.Len() > probationCap {
		c.forget(c.probation.Back())
	}
	return true
}

// forget drops an unreused probation entry into the ghost ring.
func (c *segCache[K, V]) forget(el *list.Element) {
	h := maphash.Comparable(c.seed, c.unlink(el).key)
	if old := c.ghost[c.ghostAt]; c.ghostSet[old] == c.ghostAt {
		delete(c.ghostSet, old) // not rewritten to a later slot since
	}
	c.ghost[c.ghostAt], c.ghostSet[h] = h, c.ghostAt
	c.ghostAt = (c.ghostAt + 1) % ghostSlots
	c.unreused++
}

// unlink removes a resident entry and returns its cost to the ledger.
func (c *segCache[K, V]) unlink(el *list.Element) *segEntry[K, V] {
	e := el.Value.(*segEntry[K, V])
	if e.prot {
		c.protected.Remove(el)
	} else {
		c.probation.Remove(el)
	}
	delete(c.items, e.key)
	c.cost -= e.cost
	c.ledger.Release(e.cost)
	return e
}

// clear empties all three segments and returns the resident entry count.
func (c *segCache[K, V]) clear() int {
	n := len(c.items)
	c.ledger.Release(c.cost)
	c.items, c.ghostSet = make(map[K]*list.Element), make(map[uint64]int)
	c.probation, c.protected = list.New(), list.New()
	c.ghost, c.ghostAt, c.cost = [ghostSlots]uint64{}, 0, 0
	return n
}

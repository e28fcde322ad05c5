// Package cache is the one cache implementation in the engine: both
// query-cache tiers and the recycler run on it.
//
// Cache is the segmented (2Q) cache of Johnson & Shasha (VLDB 1994). A new
// entry enters a probation FIFO; a hit promotes it to the protected LRU.
// Probation holds at most a quarter of the budget (2Q's K_in), counted in
// the cache's own cost unit, though never by dropping the entry just
// admitted. An entry that falls off probation unreused leaves its key hash
// in a ghostSlots ring, and an admission whose hash is still there has
// proved reuse and goes straight to protected. Entries cost against one
// budget, which takes probation's oldest first and protected's least recent
// only when probation is empty, and against the ledger (nil: none).
//
// An entry may view a Share: a cost several entries have in common (the
// recycler's run buffers), charged once, whole, from the first of its
// viewers admitted until the last one leaves, and counted towards probation
// while any viewer waits there. A Cache is not safe for concurrent use: its
// owner's mutex guards it, its Shares and its counters.
package cache

import (
	"container/list"
	"hash/maphash"
	"iter"

	"repro/internal/mem"
)

// Cache is a budgeted 2Q cache; see the package doc.
type Cache[K comparable, V any] struct {
	// Evictions counts protected entries evicted for room; Unreused,
	// probation entries dropped without a hit; Declined, admissions the
	// ledger refused, and DeclinedCost what they would have charged. The
	// owner may reset them.
	Evictions, Unreused, Declined, DeclinedCost int64

	budget, cost, probCost int64 // cost: every resident charge; probCost: probation's part
	ledger                 *mem.Ledger
	seed                   maphash.Seed

	items                map[K]*list.Element // of *entry[K, V]
	probation, protected *list.List          // newest / most recent at the front
	ghost                [ghostSlots]uint64  // hashes of dropped probation keys
	ghostAt              int                 // next ghost slot to write
	ghostSet             map[uint64]int      // hash -> its latest ghost slot
}

const ghostSlots = 4096

// Share is a cost that the entries viewing it have in common.
type Share struct {
	Cost           int64
	n, onProbation int // resident viewers; those on probation
}

type entry[K comparable, V any] struct {
	key   K
	val   V
	cost  int64
	share *Share
	prot  bool
}

// New returns an empty cache of the given budget, charging ledger.
func New[K comparable, V any](budget int64, ledger *mem.Ledger) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, ledger: ledger, seed: maphash.MakeSeed()}
	c.Clear()
	return c
}

// Get returns k's value. With use set it counts a use: a probation entry
// moves to protected, a protected one becomes the most recent.
func (c *Cache[K, V]) Get(k K, use bool) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	e := el.Value.(*entry[K, V])
	if use && e.prot {
		c.protected.MoveToFront(el)
	} else if use {
		c.probation.Remove(el)
		c.account(e, -1)
		e.prot = true
		c.account(e, 1)
		c.items[k] = c.protected.PushFront(e)
	}
	return e.val, true
}

// Add admits v under k at cost, viewing share (nil: none), evicting until
// it fits the budget, and reports whether k is resident afterwards. An
// entry whose charge — its cost, plus its share's when no resident entry
// views that yet — exceeds the whole budget, or which the ledger declines,
// is not admitted. A resident k keeps its value and counts a use instead.
func (c *Cache[K, V]) Add(k K, v V, cost int64, share *Share) bool {
	if _, ok := c.Get(k, true); ok {
		return true
	}
	var charge int64
	for { // making room can evict the share's last other viewer
		if charge = cost; share != nil && share.n == 0 {
			charge += share.Cost
		}
		if charge > c.budget {
			return false
		}
		if c.cost+charge <= c.budget {
			break
		}
		if el := c.probation.Back(); el != nil {
			c.forget(el)
		} else {
			c.unlink(c.protected.Back())
			c.Evictions++
		}
	}
	if !c.ledger.TryReserve(charge) {
		c.Declined++
		c.DeclinedCost += charge
		return false
	}
	_, seen := c.ghostSet[maphash.Comparable(c.seed, k)]
	e := &entry[K, V]{key: k, val: v, cost: cost, share: share, prot: seen}
	c.account(e, 1)
	if seen {
		c.items[k] = c.protected.PushFront(e)
		return true
	}
	el := c.probation.PushFront(e)
	c.items[k] = el
	for c.probCost > c.budget/4 && c.probation.Back() != el {
		c.forget(c.probation.Back())
	}
	return true
}

// Remove drops k if it is resident, releasing its charge.
func (c *Cache[K, V]) Remove(k K) bool {
	el, ok := c.items[k]
	if ok {
		c.unlink(el)
	}
	return ok
}

// All walks the resident entries: protected from the most recent, then
// probation from the newest. The loop body may Remove the key it is given
// and must not otherwise change the cache.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for _, l := range [...]*list.List{c.protected, c.probation} {
			for el := l.Front(); el != nil; {
				e, next := el.Value.(*entry[K, V]), el.Next()
				if !yield(e.key, e.val) {
					return
				}
				el = next
			}
		}
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cost returns what the resident entries charge, each share once.
func (c *Cache[K, V]) Cost() int64 { return c.cost }

// Clear empties all three segments and returns the resident entry count.
func (c *Cache[K, V]) Clear() int {
	n := len(c.items)
	for _, el := range c.items {
		c.unlink(el)
	}
	c.items, c.ghostSet = make(map[K]*list.Element), make(map[uint64]int)
	c.probation, c.protected = list.New(), list.New()
	c.ghost, c.ghostAt = [ghostSlots]uint64{}, 0
	return n
}

// forget drops an unreused probation entry into the ghost ring.
func (c *Cache[K, V]) forget(el *list.Element) {
	h := maphash.Comparable(c.seed, c.unlink(el).key)
	if old := c.ghost[c.ghostAt]; c.ghostSet[old] == c.ghostAt {
		delete(c.ghostSet, old) // not rewritten to a later slot since
	}
	c.ghost[c.ghostAt], c.ghostSet[h] = h, c.ghostAt
	c.ghostAt = (c.ghostAt + 1) % ghostSlots
	c.Unreused++
}

// unlink removes a resident entry and returns its charge to the ledger.
func (c *Cache[K, V]) unlink(el *list.Element) *entry[K, V] {
	e := el.Value.(*entry[K, V])
	if e.prot {
		c.protected.Remove(el)
	} else {
		c.probation.Remove(el)
	}
	delete(c.items, e.key)
	was := c.cost
	c.account(e, -1)
	c.ledger.Release(was - c.cost)
	return e
}

// account adds (d = 1) or takes away (d = -1) e's charge: its cost, and its
// share's cost with the share's first or last viewer — in total and, while
// e is on probation, in probation's part.
func (c *Cache[K, V]) account(e *entry[K, V], d int) {
	c.cost += int64(d) * e.cost
	if !e.prot {
		c.probCost += int64(d) * e.cost
	}
	if s := e.share; s != nil {
		c.cost += edge(&s.n, d) * s.Cost
		if !e.prot {
			c.probCost += edge(&s.onProbation, d) * s.Cost
		}
	}
}

// edge adds d to *n and returns d when *n left zero or reached it, else 0.
func edge(n *int, d int) int64 {
	was := *n
	if *n += d; was != 0 && *n != 0 {
		return 0
	}
	return int64(d)
}

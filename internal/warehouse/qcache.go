package warehouse

import (
	"container/list"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/plan"
)

// Two-tier query cache.
//
// Tier 1 caches parse and plan work: the statement cache maps a canonical
// template to its *Prepared (the parsed, unbound AST every ad-hoc query of
// that shape is served through), and the plan cache maps
// (template, parameter values, catalog-store version) to the fully built and
// join-reordered plan skeleton. The options fingerprint the issue of record
// calls for is implicit — the cache lives on one warehouse whose mode and
// Oracle set are immutable after Open. Versioned
// keys are also how plans stay honest against shifting zone-map statistics:
// join-order estimates read only the per-table batch zones, which change
// exclusively through store mutations, and every store mutation bumps the
// version — so a plan whose chosen join order a stats shift would change can
// never be looked up again.
//
// Tier 2 caches completed results, keyed by (normalized SQL + parameters,
// store snapshot version, repo-metadata snapshot version) and guarded by the
// per-file stamps the extraction reported: a hit re-stats every source file
// the answer depends on and is dropped when any mtime/size moved, the same
// staleness contract the recycler cache and the zone maps use. Entries are
// byte-charged to the warehouse mem.Ledger, so cached results compete with
// the recycler and operator working sets under the one global budget, and
// admission is declined — never blocked — under pressure.
type queryCache struct {
	ledger *mem.Ledger

	mu      sync.Mutex
	stmts   map[string]*Prepared
	plans   map[string]*list.Element // of *planElem
	planLRU *list.List
	results map[resultKey]*list.Element // of *resultEntry
	resLRU  *list.List
	// st holds the counters in the form statsSnapshot returns;
	// st.ResultBytes is the result tier's own budget accounting, and the
	// entry counts are read off the LRUs at snapshot time.
	st QueryCacheStats
}

const (
	// maxStmts / maxPlans bound tier 1. Plans are small (node skeletons and
	// two rendered strings), so a simple entry cap is enough.
	maxStmts = 256
	maxPlans = 256
	// resultBudget bounds tier 2's own footprint; the shared ledger may
	// shrink it further. maxResultStamps caps the per-entry re-validation
	// cost: answers touching more files than this are not admitted.
	resultBudget    = 64 << 20
	maxResultStamps = 64
	// resultOverhead approximates an entry's bookkeeping beyond the batch
	// payload (strings, stamps, list/map slots).
	resultOverhead = 512
)

// planEntry is one built plan: everything Query needs that is independent
// of the executing snapshot's data (the plan tree is never mutated by
// execution, so concurrent queries share it).
type planEntry struct {
	sqlText   string // bound statement rendering (Trace.SQL)
	root      plan.Node
	naive     string
	optimized string
	join      *plan.ReorderInfo
}

// trace is the plan's Trace skeleton: SQL, plans and join decision; the
// run-time fields fill in during execution.
func (pe *planEntry) trace() Trace {
	return Trace{SQL: pe.sqlText, Naive: pe.naive, Optimized: pe.optimized, Join: pe.join}
}

type planElem struct {
	key string
	pe  *planEntry
}

type resultKey struct {
	sqlKey            string
	storeVer, repoVer int64
}

type resultEntry struct {
	key     resultKey
	columns []string
	batch   *column.Batch
	trace   Trace // skeleton: SQL, plans and join decision; no runtime ops
	stamps  []plan.FileStamp
	bytes   int64
}

func newQueryCache(ledger *mem.Ledger) *queryCache {
	return &queryCache{
		ledger:  ledger,
		stmts:   make(map[string]*Prepared),
		plans:   make(map[string]*list.Element),
		planLRU: list.New(),
		results: make(map[resultKey]*list.Element),
		resLRU:  list.New(),
	}
}

// paramsKey encodes parameter values into an exact, collision-free key
// fragment: type-tagged, length-prefixed strings, float64s by bit pattern
// (so 1.0 and the integer 1 never alias, and NaN payloads stay distinct).
func paramsKey(params []column.Value) string {
	if len(params) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, v := range params {
		sb.WriteByte(0x01)
		if v.Null {
			sb.WriteByte('n')
			sb.WriteString(strconv.Itoa(int(v.Type)))
			continue
		}
		switch v.Type {
		case column.Float64:
			sb.WriteByte('f')
			sb.WriteString(strconv.FormatUint(math.Float64bits(v.F), 16))
		case column.String:
			sb.WriteByte('s')
			sb.WriteString(strconv.Itoa(len(v.S)))
			sb.WriteByte(':')
			sb.WriteString(v.S)
		default: // Int64, Timestamp, Bool all live in I
			sb.WriteByte('i')
			sb.WriteString(strconv.Itoa(int(v.Type)))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatInt(v.I, 10))
		}
	}
	return sb.String()
}

// lookupStmt returns the cached statement of a template, or nil.
func (c *queryCache) lookupStmt(template string) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stmts[template]
}

func (c *queryCache) storeStmt(p *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stmts) >= maxStmts {
		// Drop an arbitrary entry; the statement cache is tiny and any
		// victim re-parses in microseconds.
		for k := range c.stmts {
			delete(c.stmts, k)
			break
		}
	}
	c.stmts[p.text] = p
}

// lookupPlan returns the plan cached for this key at this store version.
func (c *queryCache) lookupPlan(sqlKey string, storeVer int64) (*planEntry, bool) {
	key := sqlKey + "\x02" + strconv.FormatInt(storeVer, 10)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok {
		c.planLRU.MoveToFront(el)
		c.st.PlanHits++
		return el.Value.(*planElem).pe, true
	}
	c.st.PlanMisses++
	return nil, false
}

func (c *queryCache) storePlan(sqlKey string, storeVer int64, pe *planEntry) {
	key := sqlKey + "\x02" + strconv.FormatInt(storeVer, 10)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok { // raced with a concurrent build; keep ours fresh
		el.Value.(*planElem).pe = pe
		c.planLRU.MoveToFront(el)
		return
	}
	for c.planLRU.Len() >= maxPlans {
		back := c.planLRU.Back()
		delete(c.plans, back.Value.(*planElem).key)
		c.planLRU.Remove(back)
	}
	c.plans[key] = c.planLRU.PushFront(&planElem{key: key, pe: pe})
}

// lookupResult returns a cached answer for the key after re-validating its
// file stamps against the live filesystem. A stamp mismatch (or a vanished
// file) invalidates the entry: query answers depend on live file mtimes
// through the recycler cache and the zone maps, not only on the snapshot
// versions, so the stamps are part of the key's meaning.
func (c *queryCache) lookupResult(sqlKey string, storeVer, repoVer int64) (*resultEntry, bool) {
	key := resultKey{sqlKey: sqlKey, storeVer: storeVer, repoVer: repoVer}
	c.mu.Lock()
	el, ok := c.results[key]
	if !ok {
		c.st.ResultMisses++
		c.mu.Unlock()
		return nil, false
	}
	ent := el.Value.(*resultEntry)
	c.mu.Unlock()

	// Stat outside the lock: one slow filesystem must not stall every
	// other query's cache path.
	for _, st := range ent.stamps {
		info, err := os.Stat(st.Path)
		if err != nil || info.ModTime().UnixNano() != st.MtimeNanos || info.Size() != st.Size {
			c.mu.Lock()
			if cur, ok := c.results[key]; ok && cur == el {
				c.removeResultLocked(el)
				c.st.ResultInvalidations++
			}
			c.st.ResultMisses++
			c.mu.Unlock()
			return nil, false
		}
	}

	c.mu.Lock()
	if cur, ok := c.results[key]; ok && cur == el {
		c.resLRU.MoveToFront(el)
		c.st.ResultHits++
		c.mu.Unlock()
		return ent, true
	}
	// Evicted or invalidated while we were statting; treat as a miss.
	c.st.ResultMisses++
	c.mu.Unlock()
	return nil, false
}

// admitResult offers a completed answer to the cache. Entries that exceed
// the stamp cap or the cache's own budget, and entries the shared ledger
// has no room for, are declined — queries never block on cache admission.
func (c *queryCache) admitResult(sqlKey string, storeVer, repoVer int64, res *Result, stamps []plan.FileStamp) {
	sz := res.Batch.Bytes() + int64(len(res.Trace.SQL)+len(res.Trace.Naive)+len(res.Trace.Optimized)) + resultOverhead
	for _, st := range stamps {
		sz += int64(len(st.URI)+len(st.Path)) + 32
	}
	if len(stamps) > maxResultStamps || sz > resultBudget {
		c.mu.Lock()
		c.st.ResultDeclined++
		c.st.ResultDeclinedBytes += sz
		c.mu.Unlock()
		return
	}
	key := resultKey{sqlKey: sqlKey, storeVer: storeVer, repoVer: repoVer}
	ent := &resultEntry{
		key:     key,
		columns: res.Columns,
		batch:   res.Batch,
		trace: Trace{
			SQL:       res.Trace.SQL,
			Naive:     res.Trace.Naive,
			Optimized: res.Trace.Optimized,
			Join:      res.Trace.Join,
		},
		stamps: stamps,
		bytes:  sz,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.results[key]; ok {
		// A concurrent identical query admitted first; keep the resident
		// entry (the answers are bit-identical by construction).
		c.resLRU.MoveToFront(el)
		return
	}
	// Make room under the cache's own budget first, then ask the shared
	// ledger; under global pressure the admission is declined, keeping the
	// recycler-cache discipline.
	for c.st.ResultBytes+sz > resultBudget {
		back := c.resLRU.Back()
		if back == nil {
			break
		}
		c.removeResultLocked(back)
		c.st.ResultEvictions++
	}
	if !c.ledger.TryReserve(sz) {
		c.st.ResultDeclined++
		c.st.ResultDeclinedBytes += sz
		return
	}
	c.results[key] = c.resLRU.PushFront(ent)
	c.st.ResultBytes += sz
}

// removeResultLocked unlinks an entry and releases its ledger reservation.
func (c *queryCache) removeResultLocked(el *list.Element) {
	ent := el.Value.(*resultEntry)
	delete(c.results, ent.key)
	c.resLRU.Remove(el)
	c.st.ResultBytes -= ent.bytes
	c.ledger.Release(ent.bytes)
}

// purge drops every cached plan and result (statements survive: parsing
// is catalog-independent). Refresh calls it so a snapshot swap reclaims the
// superseded entries at once — the versioned keys already guarantee they
// could never be served again.
func (c *queryCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = make(map[string]*list.Element)
	c.planLRU.Init()
	n := 0
	for el := c.resLRU.Front(); el != nil; {
		next := el.Next()
		c.removeResultLocked(el)
		n++
		el = next
	}
	c.st.ResultInvalidations += int64(n)
}

// QueryCacheStats is the observable state of the two-tier query cache.
type QueryCacheStats struct {
	PlanHits    int64
	PlanMisses  int64
	PlanEntries int

	ResultHits          int64
	ResultMisses        int64
	ResultEvictions     int64
	ResultInvalidations int64
	ResultDeclined      int64
	ResultDeclinedBytes int64
	ResultEntries       int
	ResultBytes         int64
}

func (c *queryCache) statsSnapshot() QueryCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.PlanEntries, st.ResultEntries = c.planLRU.Len(), c.resLRU.Len()
	return st
}

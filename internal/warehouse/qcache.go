package warehouse

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/plan"
)

// Two-tier query cache.
//
// Tier 1 caches parse and plan work: the statement cache maps a canonical
// template to its *Prepared (the parsed, unbound AST every ad-hoc query of
// that shape is served through), and the plan cache maps (template,
// parameter values) to the built plan skeleton. Nothing else goes into a
// plan: the cache lives on one warehouse whose mode, catalog and oracle
// switches are immutable after Open, and Build reads no store contents — so
// plans carry no snapshot version and survive a Refresh.
//
// Tier 2 caches completed results, keyed by (normalized SQL + parameters,
// store snapshot version) and guarded by the per-file stamps the extraction
// reported: a hit re-stats every source file the answer depends on and is
// dropped when any mtime/size moved, the same staleness contract the
// recycler cache and the zone maps use. Entries are byte-charged to the
// warehouse mem.Ledger, so cached results compete with the recycler and
// operator working sets under the one global budget, and admission is
// declined — never blocked — under pressure.
//
// Both tiers admit only what repeats: each is a cache.Cache (2Q, as the
// recycler is), where a new plan or answer waits in probation and reaches
// the protected LRU, governed by maxPlans or resultBudget, only on its
// second use. A stream of one-off literals holds at most a quarter of
// either tier's budget — 64 plans, 1 MiB of answers — instead of filling
// it with entries nobody asks for again.
type queryCache struct {
	mu sync.Mutex
	// store is the live store: an answer is admitted only while the snapshot
	// it was computed on is still the published one.
	store   *catalog.Store
	stmts   map[string]*Prepared
	plans   *cache.Cache[string, *planEntry]      // cost 1 each against maxPlans
	results *cache.Cache[resultKey, *resultEntry] // cost in bytes against resultBudget
	// st counts hits, misses, invalidations and declines; see statsSnapshot.
	st QueryCacheStats
}

const (
	// maxStmts / maxPlans bound tier 1. Plans are small (node skeletons and
	// two rendered strings), so a simple entry cap is enough.
	maxStmts = 256
	maxPlans = 256
	// resultBudget bounds tier 2's own footprint; the shared ledger may
	// shrink it further. A quarter of it is probation, where one-off answers
	// wait: 1 MiB, some 500 small answers. A bigger budget keeps more
	// one-offs live for the garbage collector to mark: with 16 MiB of them,
	// cold_scan spent ~20 % more CPU per query. maxResultStamps caps the
	// per-entry re-validation cost: answers touching more files than this
	// are not admitted.
	resultBudget    = 4 << 20
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
}

// trace is the plan's Trace skeleton: SQL and plans; the run-time fields
// fill in during execution.
func (pe *planEntry) trace() Trace {
	return Trace{SQL: pe.sqlText, Naive: pe.naive, Optimized: pe.optimized}
}

type resultKey struct {
	sqlKey  string
	version int64 // the store snapshot's
}

type resultEntry struct {
	columns []string
	batch   *column.Batch
	trace   Trace // skeleton: SQL and plans; no runtime ops
	stamps  []plan.FileStamp
}

// fresh re-stats every source file the answer depends on.
func (e *resultEntry) fresh() bool {
	for _, st := range e.stamps {
		info, err := os.Stat(st.Path)
		if err != nil || info.ModTime().UnixNano() != st.MtimeNanos || info.Size() != st.Size {
			return false
		}
	}
	return true
}

func newQueryCache(ledger *mem.Ledger, store *catalog.Store) *queryCache {
	return &queryCache{
		store:   store,
		stmts:   make(map[string]*Prepared),
		plans:   cache.New[string, *planEntry](maxPlans, nil),
		results: cache.New[resultKey, *resultEntry](resultBudget, ledger),
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

// lookupPlan returns the plan cached for this key.
func (c *queryCache) lookupPlan(sqlKey string) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pe, ok := c.plans.Get(sqlKey, true); ok {
		c.st.PlanHits++
		return pe, true
	}
	c.st.PlanMisses++
	return nil, false
}

func (c *queryCache) storePlan(sqlKey string, pe *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.Add(sqlKey, pe, 1, nil)
}

// lookupResult returns a cached answer for the key after re-validating its
// file stamps against the live filesystem. A stamp mismatch (or a vanished
// file) invalidates the entry: query answers depend on live file mtimes
// through the recycler cache and the zone maps, not only on the snapshot
// version, so the stamps are part of the key's meaning.
func (c *queryCache) lookupResult(key resultKey) (*resultEntry, bool) {
	c.mu.Lock()
	ent, ok := c.results.Get(key, false)
	c.mu.Unlock()
	// Stat outside the lock: one slow filesystem must not stall every
	// other query's cache path.
	fresh := ok && ent.fresh()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch cur, _ := c.results.Get(key, false); {
	case !ok || cur != ent: // absent, or evicted or invalidated while we were statting
	case !fresh:
		c.results.Remove(key)
		c.st.ResultInvalidations++
	default:
		c.results.Get(key, true)
		c.st.ResultHits++
		return ent, true
	}
	c.st.ResultMisses++
	return nil, false
}

// admitResult offers a completed answer to the cache. Entries that exceed
// the stamp cap or the cache's own budget, and entries the shared ledger
// has no room for, are declined — queries never block on cache admission.
// A concurrent identical query that admitted first keeps its entry (the
// answers are bit-identical by construction). An answer computed on a
// snapshot a Refresh has since superseded is not offered at all: no later
// query can carry its version. The check is made under the lock purge
// takes after every publication, so no superseded entry outlives a purge.
func (c *queryCache) admitResult(key resultKey, res *Result, stamps []plan.FileStamp) {
	sz := res.Batch.Bytes() + int64(len(res.Trace.SQL)+len(res.Trace.Naive)+len(res.Trace.Optimized)) + resultOverhead
	for _, st := range stamps {
		sz += int64(len(st.URI)+len(st.Path)) + 32
	}
	ent := &resultEntry{
		columns: res.Columns,
		batch:   res.Batch,
		trace:   Trace{SQL: res.Trace.SQL, Naive: res.Trace.Naive, Optimized: res.Trace.Optimized},
		stamps:  stamps,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.version != c.store.Snapshot().Version() {
		return
	}
	if len(stamps) > maxResultStamps || !c.results.Add(key, ent, sz, nil) {
		c.st.ResultDeclined++
		c.st.ResultDeclinedBytes += sz
	}
}

// purge drops every cached result and clears the result tier's probation
// and ghost segments. Refresh calls it so a snapshot swap reclaims the
// superseded answers at once — their versioned keys already guarantee they
// could never be served again. Statements and plans survive: neither
// depends on the repository's contents.
func (c *queryCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.ResultInvalidations += int64(c.results.Clear())
}

// QueryCacheStats is the observable state of the two-tier query cache.
type QueryCacheStats struct {
	PlanHits    int64
	PlanMisses  int64
	PlanEntries int

	ResultHits   int64
	ResultMisses int64
	// ResultEvictions counts protected answers evicted under byte pressure;
	// ResultUnreused, answers dropped from probation without a hit.
	ResultEvictions     int64
	ResultUnreused      int64
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
	st.PlanEntries, st.ResultEntries = c.plans.Len(), c.results.Len()
	st.ResultEvictions, st.ResultUnreused, st.ResultBytes = c.results.Evictions, c.results.Unreused, c.results.Cost()
	return st
}

package warehouse

import (
	"encoding/binary"
	"math"
	"os"
	"sync"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/mem"
	"repro/internal/plan"
)

// Two-tier query cache.
//
// The statement tier maps a canonical template to its *Prepared: the
// parsed, unbound AST that every ad-hoc query of that shape and every
// Prepare of it is served through. Parsing is all it saves; each execution
// binds its parameters and builds and renders its plan afresh, since a plan
// depends on its literals (sample window, prune range, derived interval
// predicates, output names) and an exact repeat is answered by the result
// tier before any plan is needed.
//
// The result tier caches completed answers, keyed by (normalized SQL +
// parameters, store snapshot version) and guarded by the per-file stamps
// the extraction reported: a hit re-stats every source file the answer
// depends on and is dropped when any mtime/size moved, the same staleness
// contract the recycler cache and the zone maps use. Entries are
// byte-charged to the warehouse mem.Ledger, so cached results compete with
// the recycler and operator working sets under the one global budget, and
// admission is declined — never blocked — under pressure.
//
// Both tiers admit only what repeats: each is a cache.Cache (2Q, as the
// recycler is), where a new statement or answer waits in probation and
// reaches the protected LRU, governed by maxStmts or resultBudget, only on
// its second use. A stream of one-off shapes or literals holds at most a
// quarter of either tier's budget — 64 statements, 1 MiB of answers —
// instead of evicting the entries that repeat.
type queryCache struct {
	mu sync.Mutex
	// store is the live store: an answer is admitted only while the snapshot
	// it was computed on is still the published one.
	store   *catalog.Store
	stmts   *cache.Cache[string, *Prepared]       // cost 1 each against maxStmts
	results *cache.Cache[resultKey, *resultEntry] // cost in bytes against resultBudget
	// st counts hits, misses, invalidations and declines; see statsSnapshot.
	st QueryCacheStats
}

const (
	// maxStmts bounds the statement tier. A statement is a small AST, so an
	// entry cap is enough.
	maxStmts = 256
	// resultBudget bounds the result tier's own footprint; the shared ledger
	// may shrink it further. A quarter of it is probation, where one-off
	// answers wait: 1 MiB, some 500 small answers. A bigger budget keeps
	// more one-offs live for the garbage collector to mark: with 16 MiB of
	// them, cold_scan spent ~20 % more CPU per query. maxResultStamps caps
	// the per-entry re-validation cost: answers touching more files than
	// this are not admitted.
	resultBudget    = 4 << 20
	maxResultStamps = 64
	// resultOverhead approximates an entry's bookkeeping beyond the batch
	// payload (strings, stamps, list/map slots).
	resultOverhead = 512
	// planEstimate is what an entry is charged for the statement and the
	// two plan trees its Trace holds: about what their rendered text takes
	// for the statements the daemon serves most.
	planEstimate = 1 << 10
)

type resultKey struct {
	sqlKey  string
	version int64 // the store snapshot's
}

type resultEntry struct {
	columns []string
	batch   *column.Batch
	trace   Trace // skeleton: statement and plans; no runtime ops
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
		stmts:   cache.New[string, *Prepared](maxStmts, nil),
		results: cache.New[resultKey, *resultEntry](resultBudget, ledger),
	}
}

// key is the statement's result-cache key for these parameter values, or ""
// for a one-off statement, which has none. After the template come, per
// value, its type, a tag (null, or the payload's kind) and its payload:
// float64s by bit pattern (so 1.0 and the integer 1 never alias, and NaN
// payloads stay distinct), strings length-prefixed. No two bindings share a
// key.
func (p *Prepared) key(params []column.Value) string {
	if !p.cached {
		return ""
	}
	b := append(make([]byte, 0, len(p.text)+1+10*len(params)), p.text...)
	b = append(b, 0x1f)
	for _, v := range params {
		switch b = append(b, byte(v.Type)); {
		case v.Null:
			b = append(b, 'n')
		case v.Type == column.Float64:
			b = binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v.F))
		case v.Type == column.String:
			b = append(binary.AppendUvarint(append(b, 's'), uint64(len(v.S))), v.S...)
		default: // Int64, Timestamp, Bool all live in I
			b = binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v.I))
		}
	}
	return string(b)
}

// statement returns the cached statement of a template, counting a use, or
// else the one parse makes, admitted unless it is a one-off. Of concurrent
// misses of one template, all return the statement admitted first.
func (c *queryCache) statement(tmpl string, parse func() (*Prepared, error)) (*Prepared, error) {
	c.mu.Lock()
	p, ok := c.stmts.Get(tmpl, true)
	c.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := parse()
	if err != nil || !p.cached {
		return p, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stmts.Add(tmpl, p, 1, nil)
	p, _ = c.stmts.Get(tmpl, false)
	return p, nil
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
	sz := res.Batch.Bytes() + planEstimate + resultOverhead
	for _, st := range stamps {
		sz += int64(len(st.URI)+len(st.Path)) + 32
	}
	ent := &resultEntry{
		columns: res.Columns,
		batch:   res.Batch,
		trace:   Trace{stmt: res.Trace.stmt, naive: res.Trace.naive, optim: res.Trace.optim},
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
// could never be served again. Statements survive: they do not depend on
// the repository's contents.
func (c *queryCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.ResultInvalidations += int64(c.results.Clear())
}

// QueryCacheStats is the observable state of the two-tier query cache.
type QueryCacheStats struct {
	// PlanHits and PlanMisses are always 0: no tier caches plans, since a
	// plan depends on its literals and costs microseconds to build. They
	// stay so that /stats keeps its wire shape for the clients that decode
	// them.
	PlanHits   int64
	PlanMisses int64

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
	st.ResultEntries = c.results.Len()
	st.ResultEvictions, st.ResultUnreused, st.ResultBytes = c.results.Evictions, c.results.Unreused, c.results.Cost()
	return st
}

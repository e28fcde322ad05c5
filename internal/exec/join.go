package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/column"
	"repro/internal/mem"
)

// JoinStats describes how one hash join executed: the shape of the build
// (flat-table partitions, parallel or serial), the probe volume, and any
// grace-hash spilling the memory governor forced. The planner reports it
// through the observer and the warehouse aggregates it.
type JoinStats struct {
	IntKeys       bool // packed-int64 fast path (vs byte-encoded keys)
	Partitions    int  // build partition count (1 = serial single table)
	ParallelBuild bool
	BuildRows     int
	ProbeRows     int
	Matches       int

	// Spill counters: partitions whose build rows went to disk because
	// their memory grant was denied, and the volume written. SpillNanos
	// covers spill-file writes plus the probe-time partition rebuilds,
	// summed per partition (busy time, not wall clock, when partitions
	// spill concurrently).
	SpilledPartitions int
	SpilledRows       int
	SpilledBytes      int64
	SpillNanos        int64
}

// joinTable is the build side of a hash join. The table is the flat
// open-addressing structure of hashtable.go — slot arrays per partition
// plus one chained next row index — not a Go map. The probe side is bound
// by key name per probed batch (see bind): a pipelined build exists before
// any probe row does. Probing resident partitions is read-only and safe for
// concurrent use by morsel workers.
type joinTable struct {
	rkc     []*column.Column
	lkeys   []string // probe-side key names
	intKeys bool
	rpk     []packedKeyCol // int-path packing adapters (intKeys only)

	parts []joinPart
	shift uint    // partition = hash >> shift (64 when single-table)
	next  []int32 // next build row with the same key, -1 terminates

	// Memory governance: the operator's grant on the query ledger, and the
	// grace-hash spill state. spilled is nil when every partition built in
	// memory; a spilled partition's table is rebuilt from its file — one
	// partition at a time — during the probe.
	qm          *QueryMem
	grant       *mem.Grant
	spilled     []bool
	spillFiles  []string
	spillRows   []int
	spillPrefix string
	avgKey      int64

	stats JoinStats
}

// buildJoinTable validates the key lists and builds the flat table over the
// right (build) side: serially into a single partition table when pool is
// nil or the build side is small, radix-partitioned across the pool's
// workers otherwise — and, under a finite qm budget, spilling over-grant
// partitions to disk. Whatever shape the build takes, the probe output is
// identical.
func buildJoinTable(ctx context.Context, left, right *column.Batch, leftKeys, rightKeys []string, p *Pool, qm *QueryMem) (*joinTable, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: join needs matching non-empty key lists, got %v and %v", leftKeys, rightKeys)
	}
	lkc, err := keyColumns(left, leftKeys)
	if err != nil {
		return nil, err
	}
	rkc, err := keyColumns(right, rightKeys)
	if err != nil {
		return nil, err
	}

	// Fast path: up to two key columns pack into a [2]int64 when each pair
	// is integer-family on both sides, or null-free Float64 on both sides
	// (bit-cast through floatKeyBits, so NaNs and signed zeros behave like
	// the float comparison kernels).
	intKeys := len(lkc) <= 2
	for i := range lkc {
		lt, rt := lkc[i].Type(), rkc[i].Type()
		ok := (lt.IntFamily() && rt.IntFamily()) ||
			(lt == column.Float64 && rt == column.Float64 && !lkc[i].HasNulls() && !rkc[i].HasNulls())
		if !ok {
			intKeys = false
			break
		}
	}

	jt := &joinTable{
		rkc:     rkc,
		lkeys:   append([]string(nil), leftKeys...),
		intKeys: intKeys,
		next:    make([]int32, right.NumRows()),
		qm:      qm,
		grant:   qm.Ledger().NewGrant(),
	}
	if intKeys {
		jt.rpk = packKeyCols(rkc)
	}
	jt.stats = JoinStats{IntKeys: intKeys, Partitions: 1, BuildRows: right.NumRows()}
	if err := jt.buildTable(ctx, p, qm); err != nil {
		jt.grant.Close()
		return nil, err
	}
	return jt, nil
}

// packKeyCols builds the int-packing adapters for the fast path.
func packKeyCols(cols []*column.Column) []packedKeyCol {
	out := make([]packedKeyCol, len(cols))
	for i, c := range cols {
		if c.Type() == column.Float64 {
			out[i] = packedKeyCol{fls: c.Float64s()}
		} else {
			out[i] = packedKeyCol{ints: c.Int64s()}
		}
	}
	return out
}

// packRight packs build row i's key.
func (jt *joinTable) packRight(i int) (int64, int64) { return packKey(jt.rpk, i) }

func packKey(cols []packedKeyCol, i int) (int64, int64) {
	a := cols[0].at(i)
	var b int64
	if len(cols) > 1 {
		b = cols[1].at(i)
	}
	return a, b
}

// encodeKey appends the row's key tuple to buf with the aggregator's
// fixed-width encoding (appendRowKey canonicalizes float values, so the
// generic path agrees with the bit-cast fast path on NaN and -0 keys).
func (jt *joinTable) encodeKey(buf []byte, cols []*column.Column, row int) []byte {
	for _, c := range cols {
		buf = appendRowKey(buf, c, row)
	}
	return buf
}

// probeKeys are the probe-side key columns of one batch or morsel view.
type probeKeys struct {
	kc []*column.Column
	pk []packedKeyCol // int path only
}

// bind resolves the probe-side key columns on b.
func (jt *joinTable) bind(b *column.Batch) (probeKeys, error) {
	kc, err := keyColumns(b, jt.lkeys)
	if err != nil {
		return probeKeys{}, err
	}
	k := probeKeys{kc: kc}
	if jt.intKeys {
		k.pk = packKeyCols(kc)
	}
	return k, nil
}

// probe probes the rows sel selects (ascending; nil = each of the n rows)
// in order, returning the matched (left, right) row-index pairs: each row
// walks straight into the table of the partition its hash prefix names.
// Each key lives in exactly one partition and each chain walks build rows
// in ascending order, so the output is the same whatever partition count
// the build chose. Rows whose key hashes into a spilled partition are not
// probed here; their (row, hash) pairs are returned for probeSpilled to
// handle partition-by-partition, reusing the hash this pass already
// computed.
func (jt *joinTable) probe(keys probeKeys, sel []int32, n int) (lsel, rsel, spl []int32, sph []uint64) {
	kc, pk := keys.kc, keys.pk
	nr := n
	if sel != nil {
		nr = len(sel)
	}
	rowAt := func(k int) int {
		if sel != nil {
			return int(sel[k])
		}
		return k
	}
	lsel = make([]int32, 0, nr)
	rsel = make([]int32, 0, nr)
	if jt.intKeys {
		for k := 0; k < nr; k++ {
			i := rowAt(k)
			if nullKey(kc, i) {
				continue
			}
			a, b := packKey(pk, i)
			h := hashIntKey(a, b)
			pi := h >> jt.shift
			if jt.spilled != nil && jt.spilled[pi] {
				spl = append(spl, int32(i))
				sph = append(sph, h)
				continue
			}
			pt := &jt.parts[pi]
			for ri := pt.lookupInt(h, a, b); ri >= 0; ri = jt.next[ri] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, ri)
			}
		}
		return lsel, rsel, spl, sph
	}
	buf := make([]byte, 0, 16*len(kc))
	for k := 0; k < nr; k++ {
		i := rowAt(k)
		if nullKey(kc, i) {
			continue
		}
		buf = jt.encodeKey(buf[:0], kc, i)
		h := fnv1a(buf)
		pi := h >> jt.shift
		if jt.spilled != nil && jt.spilled[pi] {
			spl = append(spl, int32(i))
			sph = append(sph, h)
			continue
		}
		pt := &jt.parts[pi]
		for ri := pt.lookupGen(h, buf); ri >= 0; ri = jt.next[ri] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, ri)
		}
	}
	return lsel, rsel, spl, sph
}

// probeMorsel probes the selected rows of one pipeline morsel (sel nil =
// all rows) against a fully resident table. A build that spilled is probed
// whole-batch through probeAll instead — the planner decides that right
// after the build, before any morsel flows.
func (jt *joinTable) probeMorsel(b *column.Batch, sel []int32) ([]int32, []int32, error) {
	k, err := jt.bind(b)
	if err != nil {
		return nil, nil, err
	}
	lsel, rsel, _, _ := jt.probe(k, sel, b.NumRows())
	return lsel, rsel, nil
}

// probeAll probes every row of left: resident partitions through probe,
// spilled partitions via probeSpilled, merged back into the probe order.
func (jt *joinTable) probeAll(ctx context.Context, left *column.Batch) ([]int32, []int32, error) {
	k, err := jt.bind(left)
	if err != nil {
		return nil, nil, err
	}
	lsel, rsel, spl, sph := jt.probe(k, nil, left.NumRows())
	if jt.spilled == nil {
		return lsel, rsel, nil
	}
	return jt.probeSpilled(ctx, k, lsel, rsel, spl, sph)
}

// probeSpilled handles the spilled partitions of a grace-hash join: the
// probe rows the resident pass set aside (ascending row order, hashes
// already computed) are bucketed per spilled partition, then each
// partition is rebuilt from its spill file and probed — strictly one
// partition at a time, in ascending partition index, which is what bounds
// the working set and keeps error reporting deterministic. Every left
// row's key lives in exactly one partition, so merging the per-partition
// match lists with the resident matches by left row reproduces the serial
// probe order exactly. Each rebuild first checks ctx: a cancelled query
// reads no further spill file and gets ctx.Err().
func (jt *joinTable) probeSpilled(ctx context.Context, k probeKeys, residentL, residentR, spl []int32, sph []uint64) ([]int32, []int32, error) {
	t0 := time.Now()
	defer func() { jt.stats.SpillNanos += time.Since(t0).Nanoseconds() }()

	pRows := make([][]int32, len(jt.parts))
	pHash := make([][]uint64, len(jt.parts))
	for k, i := range spl {
		pi := sph[k] >> jt.shift
		pRows[pi] = append(pRows[pi], i)
		pHash[pi] = append(pHash[pi], sph[k])
	}

	lls := [][]int32{residentL}
	rls := [][]int32{residentR}
	for pi := range jt.parts {
		if !jt.spilled[pi] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		pl, pr, err := jt.probeOneSpilled(k, pi, pRows[pi], pHash[pi])
		if err != nil {
			return nil, nil, err
		}
		lls = append(lls, pl)
		rls = append(rls, pr)
	}
	l, r := mergeMatchLists(lls, rls)
	return l, r, nil
}

// probeOneSpilled rebuilds one spilled partition's table from its file and
// probes the bucketed probe rows against it. The rebuild reserves its
// working set unconditionally (Must): one partition at a time is the
// minimum the grace-hash join can run in, so overage is recorded in the
// ledger's high-water mark rather than dead-ending.
func (jt *joinTable) probeOneSpilled(k probeKeys, pi int, rows []int32, hashes []uint64) (lsel, rsel []int32, err error) {
	est := joinPartBytes(jt.spillRows[pi], jt.intKeys, jt.avgKey)
	jt.grant.Must(est)
	defer jt.grant.Release(est)

	sr, err := jt.qm.openSpillReader(jt.spillFiles[pi])
	if err != nil {
		return nil, nil, err
	}
	defer sr.close()
	tab := newJoinPart(jt.spillRows[pi], jt.intKeys)
	n := 0
	for {
		row, h, key, err := sr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if int(row) < 0 || int(row) >= len(jt.next) || h>>jt.shift != uint64(pi) {
			return nil, nil, fmt.Errorf("exec: spill %s: corrupt record (row %d of %d, partition %d of %d)",
				jt.spillFiles[pi], row, len(jt.next), h>>jt.shift, pi)
		}
		if jt.intKeys {
			if len(key) != 16 {
				return nil, nil, fmt.Errorf("exec: spill %s: corrupt packed key length %d", jt.spillFiles[pi], len(key))
			}
			a := int64(binary.LittleEndian.Uint64(key[0:8]))
			b := int64(binary.LittleEndian.Uint64(key[8:16]))
			tab.insertInt(h, a, b, row, jt.next)
		} else {
			tab.insertGen(h, key, row, jt.next)
		}
		n++
	}
	if n != jt.spillRows[pi] {
		return nil, nil, fmt.Errorf("exec: spill %s: expected %d records, found %d", jt.spillFiles[pi], jt.spillRows[pi], n)
	}

	lsel = make([]int32, 0, len(rows))
	rsel = make([]int32, 0, len(rows))
	if jt.intKeys {
		for j, i := range rows {
			a, b := packKey(k.pk, int(i))
			for ri := tab.lookupInt(hashes[j], a, b); ri >= 0; ri = jt.next[ri] {
				lsel = append(lsel, i)
				rsel = append(rsel, ri)
			}
		}
		return lsel, rsel, nil
	}
	buf := make([]byte, 0, 16*len(k.kc))
	for j, i := range rows {
		buf = jt.encodeKey(buf[:0], k.kc, int(i))
		for ri := tab.lookupGen(hashes[j], buf); ri >= 0; ri = jt.next[ri] {
			lsel = append(lsel, i)
			rsel = append(rsel, ri)
		}
	}
	return lsel, rsel, nil
}

// mergeMatchLists merges match-pair lists — each ascending in left row —
// into one list ordered by left row. A left row's matches live in exactly
// one input list (its key hashes to one partition), so ties across lists
// cannot occur and the merge is the serial probe order by construction.
func mergeMatchLists(lls, rls [][]int32) ([]int32, []int32) {
	for len(lls) > 1 {
		nl := lls[:0:0]
		nr := rls[:0:0]
		for i := 0; i < len(lls); i += 2 {
			if i+1 == len(lls) {
				nl = append(nl, lls[i])
				nr = append(nr, rls[i])
				continue
			}
			ml, mr := mergeMatchPair(lls[i], rls[i], lls[i+1], rls[i+1])
			nl = append(nl, ml)
			nr = append(nr, mr)
		}
		lls, rls = nl, nr
	}
	return lls[0], rls[0]
}

func mergeMatchPair(l1, r1, l2, r2 []int32) ([]int32, []int32) {
	if len(l1) == 0 {
		return l2, r2
	}
	if len(l2) == 0 {
		return l1, r1
	}
	ml := make([]int32, 0, len(l1)+len(l2))
	mr := make([]int32, 0, len(r1)+len(r2))
	i, j := 0, 0
	for i < len(l1) && j < len(l2) {
		if l1[i] <= l2[j] {
			ml = append(ml, l1[i])
			mr = append(mr, r1[i])
			i++
		} else {
			ml = append(ml, l2[j])
			mr = append(mr, r2[j])
			j++
		}
	}
	ml = append(ml, l1[i:]...)
	mr = append(mr, r1[i:]...)
	ml = append(ml, l2[j:]...)
	mr = append(mr, r2[j:]...)
	return ml, mr
}

// assembleJoin gathers both sides by the matched row pairs and appends the
// right columns minus the right keys to the left columns.
func assembleJoin(left, right *column.Batch, rightKeys []string, lsel, rsel []int32) (*column.Batch, error) {
	out := left.Gather(lsel)
	rightOut := right.Gather(rsel)
	skip := make(map[string]bool, len(rightKeys))
	for _, k := range rightKeys {
		skip[k] = true
	}
	for i := 0; i < rightOut.NumCols(); i++ {
		c := rightOut.ColAt(i)
		if skip[c.Name()] {
			continue
		}
		if err := out.AddColumn(c); err != nil {
			return nil, fmt.Errorf("exec: join output: %w", err)
		}
	}
	return out, nil
}

func keyColumns(b *column.Batch, names []string) ([]*column.Column, error) {
	out := make([]*column.Column, len(names))
	for i, n := range names {
		c, ok := b.Col(n)
		if !ok {
			return nil, fmt.Errorf("exec: join key %q not found (have %v)", n, b.Names())
		}
		out[i] = c
	}
	return out, nil
}

// nullKey reports whether any key column is null at row i (null keys never
// join, per SQL semantics).
func nullKey(cols []*column.Column, i int) bool {
	for _, c := range cols {
		if c.IsNull(i) {
			return true
		}
	}
	return false
}

package exec

// Cache-conscious hash-join build structures: a flat open-addressing table
// (linear probing over parallel slot arrays) plus one chained row index,
// replacing the previous map[[2]int64][]int32 / map[string][]int32 build
// with its per-key slice allocations.
//
// Layout. Each partition owns a power-of-two slot array where a slot holds
// the first build row of its key (heads) and enough of the key to decide
// equality: the packed [2]int64 for integer-family keys, or the hash plus
// an arena span of the encoded bytes for generic keys. Rows with the same
// key chain through one shared next []int32 (next[row] = the next build
// row with the same key, -1 terminates), linked head->tail so a chain
// walks rows in ascending build-row order — the probe output contract.
//
// Parallel build. When the build side exceeds one morsel, rows are
// radix-partitioned on the high bits of their key hash: a first parallel
// pass hashes every row and counts rows per (morsel, partition), a prefix
// sum carves one contiguous window per (partition, morsel) out of a single
// row-index array, and a second parallel pass scatters row indices into
// those windows — morsel windows are laid out in morsel order, so each
// partition lists its rows in ascending row order. Each partition's table
// is then built privately by one worker, inserting in that order, which
// makes every chain identical to the serial single-table build's chain.
// Probe output is therefore bit-identical to serial at any worker count
// and any partition count. The serial single-table path (partition count
// 1) is kept as the oracle the partitioned build is tested against.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// joinPartitionCap bounds the partition count of a parallel build; with
// hash-prefix partitioning anything beyond ~4x the worker count only adds
// bookkeeping.
const joinPartitionCap = 256

// packedKeyCol adapts one key column to int64 packing: integer-family
// columns expose their raw vector, null-free Float64 columns bit-cast
// through floatKeyBits so the int fast path covers them too.
type packedKeyCol struct {
	ints []int64
	fls  []float64 // non-nil selects the bit-cast float path
}

func (k *packedKeyCol) at(i int) int64 {
	if k.fls != nil {
		return int64(floatKeyBits(k.fls[i]))
	}
	return k.ints[i]
}

// floatKeyBits maps a float key to comparable bits, canonicalizing the two
// cases where bit equality is stricter than the engine's float comparison
// convention (selCmpConstFloats): every NaN payload collapses to one
// pattern so NaN keys equal each other, and -0 collapses to +0. This is
// the engine's float key equality everywhere keys are hashed — join keys
// (packed and byte-encoded), GROUP BY keys and COUNT(DISTINCT) values all
// go through it. NaN still cannot equal non-NaN values — hashing needs an
// equivalence relation, which "NaN ties with everything" is not.
func floatKeyBits(v float64) uint64 {
	if v != v {
		return 0x7FF8000000000000 // canonical quiet NaN
	}
	if v == 0 {
		return 0 // +0 and -0 share a key
	}
	return math.Float64bits(v)
}

// hashIntKey hashes a packed integer key pair; single-key tables pass
// b == 0.
func hashIntKey(a, b int64) uint64 {
	return mix64(uint64(a) ^ mix64(uint64(b)))
}

// mix64 is the splitmix64 finalizer: a cheap, deterministic scrambler that
// spreads dense integer keys (ids, timestamps) uniformly across partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv1a is the 64-bit FNV-1a hash of the encoded key tuple. Deterministic
// across runs (unlike runtime map hashing), which keeps partition
// assignment — and therefore which partitions spill — stable.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// encodedRows persists per-row key encodings produced by the partitioned
// build's hash pass: one byte arena per morsel plus each row's start offset
// within its arena (a row's end is the next row's start, or the arena's end
// for the last row of a morsel). Partition builders read keys back with
// row() instead of encoding every row a second time.
type encodedRows struct {
	n      int
	morsel int
	arenas [][]byte
	offs   []uint32
}

func newEncodedRows(n, morselRows, mcount int) *encodedRows {
	return &encodedRows{
		n:      n,
		morsel: morselRows,
		arenas: make([][]byte, mcount),
		offs:   make([]uint32, n),
	}
}

// row returns row i's encoded key without copying.
func (e *encodedRows) row(i int) []byte {
	mi := i / e.morsel
	arena := e.arenas[mi]
	hi := (mi + 1) * e.morsel
	if hi > e.n {
		hi = e.n
	}
	if i+1 < hi {
		return arena[e.offs[i]:e.offs[i+1]]
	}
	return arena[e.offs[i]:]
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// joinPart is one partition's flat open-addressing table. Linear probing;
// the slot count is at least twice the partition's row count, so an empty
// slot always terminates a probe.
type joinPart struct {
	mask  uint64
	heads []int32 // first build row per slot, -1 = empty
	tails []int32 // last build row per slot (chain append during build)

	// Integer path: the packed key per slot.
	keyA, keyB []int64

	// Generic path: hash plus an arena span of the encoded key per slot.
	hashes []uint64
	keyOff []uint32
	keyLen []uint32
	arena  []byte
}

// newJoinPart sizes a partition table for nrows build rows.
func newJoinPart(nrows int, intKeys bool) joinPart {
	slots := nextPow2(2 * nrows)
	if slots < 2 {
		slots = 2
	}
	pt := joinPart{mask: uint64(slots - 1)}
	pt.heads = make([]int32, slots)
	pt.tails = make([]int32, slots)
	for i := range pt.heads {
		pt.heads[i] = -1
	}
	if intKeys {
		pt.keyA = make([]int64, slots)
		pt.keyB = make([]int64, slots)
	} else {
		pt.hashes = make([]uint64, slots)
		pt.keyOff = make([]uint32, slots)
		pt.keyLen = make([]uint32, slots)
	}
	return pt
}

// insertInt links build row into the chain of key (a, b), creating a slot
// on first occurrence. Rows must be inserted in ascending row order; the
// head->tail links then walk each chain in that order.
func (pt *joinPart) insertInt(h uint64, a, b int64, row int32, next []int32) {
	s := h & pt.mask
	for {
		if pt.heads[s] < 0 {
			pt.heads[s] = row
			pt.tails[s] = row
			pt.keyA[s] = a
			pt.keyB[s] = b
			return
		}
		if pt.keyA[s] == a && pt.keyB[s] == b {
			next[pt.tails[s]] = row
			pt.tails[s] = row
			return
		}
		s = (s + 1) & pt.mask
	}
}

// lookupInt returns the first build row of key (a, b), or -1.
func (pt *joinPart) lookupInt(h uint64, a, b int64) int32 {
	s := h & pt.mask
	for {
		head := pt.heads[s]
		if head < 0 {
			return -1
		}
		if pt.keyA[s] == a && pt.keyB[s] == b {
			return head
		}
		s = (s + 1) & pt.mask
	}
}

// insertGen is insertInt for byte-encoded keys; only first occurrences copy
// the key (into the partition's arena).
func (pt *joinPart) insertGen(h uint64, key []byte, row int32, next []int32) {
	s := h & pt.mask
	for {
		if pt.heads[s] < 0 {
			pt.heads[s] = row
			pt.tails[s] = row
			pt.hashes[s] = h
			pt.keyOff[s] = uint32(len(pt.arena))
			pt.keyLen[s] = uint32(len(key))
			pt.arena = append(pt.arena, key...)
			return
		}
		if pt.hashes[s] == h && bytes.Equal(pt.slotKey(s), key) {
			next[pt.tails[s]] = row
			pt.tails[s] = row
			return
		}
		s = (s + 1) & pt.mask
	}
}

// lookupGen returns the first build row of the encoded key, or -1.
func (pt *joinPart) lookupGen(h uint64, key []byte) int32 {
	s := h & pt.mask
	for {
		head := pt.heads[s]
		if head < 0 {
			return -1
		}
		if pt.hashes[s] == h && bytes.Equal(pt.slotKey(s), key) {
			return head
		}
		s = (s + 1) & pt.mask
	}
}

func (pt *joinPart) slotKey(s uint64) []byte {
	return pt.arena[pt.keyOff[s] : pt.keyOff[s]+pt.keyLen[s]]
}

// buildTable constructs the join table's partitions and row chains over the
// right (build) side. A nil pool — or a build side that fits in one morsel
// — takes the serial single-table path, provided the table's estimated
// working set fits the query's memory grant; otherwise the build is
// radix-partitioned on the hash prefix (even under the serial engine, on a
// one-worker pool) so that partitions whose grant is denied can spill their
// build rows to disk and be processed one at a time during the probe.
func (jt *joinTable) buildTable(ctx context.Context, p *Pool, qm *QueryMem) error {
	rn := len(jt.next)
	for i := range jt.next {
		jt.next[i] = -1
	}
	if p.serialFor(rn) && jt.grant.Try(joinPartBytes(rn, jt.intKeys, jt.estKeyBytes())) {
		jt.shift = 64 // every hash lands in partition 0
		jt.parts = []joinPart{newJoinPart(rn, jt.intKeys)}
		jt.buildSerial(rn)
		return nil
	}
	return jt.buildPartitioned(ctx, p.orSerial(), rn, qm)
}

// estKeyBytes is the upfront per-row encoded-key estimate used before any
// key has been encoded (the serial single-table grant); the partitioned
// build replaces it with the measured mean.
func (jt *joinTable) estKeyBytes() int64 {
	if jt.intKeys {
		return 0
	}
	return int64(16 * len(jt.rkc))
}

// buildSerial is the single-table oracle build: one pass over the build
// rows in ascending order.
func (jt *joinTable) buildSerial(rn int) {
	pt := &jt.parts[0]
	if jt.intKeys {
		for i := 0; i < rn; i++ {
			if nullKey(jt.rkc, i) {
				continue
			}
			a, b := jt.packRight(i)
			pt.insertInt(hashIntKey(a, b), a, b, int32(i), jt.next)
		}
		return
	}
	buf := make([]byte, 0, 16*len(jt.rkc))
	for i := 0; i < rn; i++ {
		if nullKey(jt.rkc, i) {
			continue
		}
		buf = jt.encodeKey(buf[:0], jt.rkc, i)
		pt.insertGen(fnv1a(buf), buf, int32(i), jt.next)
	}
}

// buildTaskHook runs first in every task of buildPartitioned's passes 1-3.
// It does nothing; tests replace it to inject a panic into a pass.
var buildTaskHook = func(pass, task int) {}

// buildPartitioned is the parallel build: hash + count per morsel, prefix
// sum, scatter into per-partition row lists (ascending row order within
// each partition), then one private table build per partition. Under a
// finite memory budget each partition's table is granted before pass 3;
// partitions whose grant is denied serialize their build rows to a spill
// file instead (in the same ascending row order) and are rebuilt
// one-partition-at-a-time during the probe. A partition about to spill
// first checks ctx, so a cancelled query writes no further spill file and
// the build returns ctx.Err(). A panic in a pass is the build's error, and
// the caller releases every partition grant taken.
func (jt *joinTable) buildPartitioned(ctx context.Context, p *Pool, rn int, qm *QueryMem) error {
	nparts := nextPow2(4 * p.Workers())
	if nparts > joinPartitionCap {
		nparts = joinPartitionCap
	}
	shift := uint(64)
	for s := 1; s < nparts; s <<= 1 {
		shift--
	}
	jt.shift = shift

	mcount := p.morselCount(rn)
	hashes := make([]uint64, rn)
	counts := make([]int32, mcount*nparts)
	var enc *encodedRows
	if !jt.intKeys {
		enc = newEncodedRows(rn, p.morselRows(), mcount)
	}

	// Pass 1: hash every non-null-key row (encoding generic keys once into
	// the morsel's arena, reused by the partition build) and count rows per
	// (morsel, partition).
	err := p.Run(mcount, func(mi int) error {
		buildTaskHook(1, mi)
		lo, hi := p.morselBounds(mi, rn)
		cnt := counts[mi*nparts : (mi+1)*nparts]
		if jt.intKeys {
			for i := lo; i < hi; i++ {
				if nullKey(jt.rkc, i) {
					continue
				}
				a, b := jt.packRight(i)
				h := hashIntKey(a, b)
				hashes[i] = h
				cnt[h>>shift]++
			}
			return nil
		}
		buf := make([]byte, 0, 16*len(jt.rkc)*(hi-lo))
		for i := lo; i < hi; i++ {
			enc.offs[i] = uint32(len(buf))
			if nullKey(jt.rkc, i) {
				continue
			}
			buf = jt.encodeKey(buf, jt.rkc, i)
			h := fnv1a(buf[enc.offs[i]:])
			hashes[i] = h
			cnt[h>>shift]++
		}
		enc.arenas[mi] = buf
		return nil
	})
	if err != nil {
		return err
	}

	// Prefix sum: partition-major, morsel-minor, so partition pt occupies
	// partRows[partStart[pt]:partStart[pt+1]] with morsel windows in morsel
	// order — ascending row order within the partition.
	starts := make([]int32, mcount*nparts)
	partStart := make([]int32, nparts+1)
	var running int32
	for pt := 0; pt < nparts; pt++ {
		partStart[pt] = running
		for mi := 0; mi < mcount; mi++ {
			starts[mi*nparts+pt] = running
			running += counts[mi*nparts+pt]
		}
	}
	partStart[nparts] = running
	partRows := make([]int32, running)

	// Pass 2: scatter row indices into the reserved windows. Each (morsel,
	// partition) cursor is owned by exactly one worker.
	err = p.Run(mcount, func(mi int) error {
		buildTaskHook(2, mi)
		lo, hi := p.morselBounds(mi, rn)
		cur := starts[mi*nparts : (mi+1)*nparts]
		for i := lo; i < hi; i++ {
			if nullKey(jt.rkc, i) {
				continue
			}
			pt := hashes[i] >> shift
			partRows[cur[pt]] = int32(i)
			cur[pt]++
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Grant pass: decide, in partition-index order, which partitions build
	// in memory and which spill. The decision only affects where a
	// partition's table is built — output is identical either way — so the
	// probe result stays bit-identical at every budget. An unlimited ledger
	// accounts the reservations (its high-water mark reflects the build's
	// working set) and never denies one.
	jt.avgKey = jt.estKeyBytes()
	if !jt.intKeys {
		var total int64
		for _, a := range enc.arenas {
			total += int64(len(a))
		}
		if rn > 0 {
			jt.avgKey = total / int64(rn)
		}
	}
	for pt := 0; pt < nparts; pt++ {
		rows := int(partStart[pt+1] - partStart[pt])
		if rows > 0 && !jt.grant.Try(joinPartBytes(rows, jt.intKeys, jt.avgKey)) {
			if jt.spilled == nil {
				jt.spilled = make([]bool, nparts)
			}
			jt.spilled[pt] = true
		}
	}
	spillNeeded := jt.spilled != nil

	// Pass 3: build each partition's table privately, in ascending row
	// order, so every chain matches the serial single-table build. Spilled
	// partitions write their rows (in the same order) to per-partition
	// files instead.
	jt.parts = make([]joinPart, nparts)
	var spillNanos, spillBytes []int64
	if spillNeeded {
		jt.spillPrefix = qm.opPrefix("join")
		jt.spillFiles = make([]string, nparts)
		jt.spillRows = make([]int, nparts)
		spillNanos = make([]int64, nparts)
		spillBytes = make([]int64, nparts)
	}
	err = p.Run(nparts, func(pi int) (err error) {
		buildTaskHook(3, pi)
		rows := partRows[partStart[pi]:partStart[pi+1]]
		if spillNeeded && jt.spilled[pi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			spillBytes[pi], err = jt.spillPartition(pi, rows, hashes, enc, qm)
			spillNanos[pi] = time.Since(t0).Nanoseconds()
			return err
		}
		tab := newJoinPart(len(rows), jt.intKeys)
		if jt.intKeys {
			for _, row := range rows {
				a, b := jt.packRight(int(row))
				tab.insertInt(hashes[row], a, b, row, jt.next)
			}
		} else {
			for _, row := range rows {
				tab.insertGen(hashes[row], enc.row(int(row)), row, jt.next)
			}
		}
		jt.parts[pi] = tab
		return nil
	})
	if err != nil {
		return err
	}
	if spillNeeded {
		for pi := range jt.parts {
			if !jt.spilled[pi] {
				continue
			}
			jt.stats.SpilledPartitions++
			jt.stats.SpilledRows += jt.spillRows[pi]
			jt.stats.SpilledBytes += spillBytes[pi]
			jt.stats.SpillNanos += spillNanos[pi]
		}
	}
	jt.stats.Partitions = nparts
	jt.stats.ParallelBuild = p.Workers() > 1
	return nil
}

// spillPartition serializes one partition's build rows — (row index, hash,
// encoded key) triples, ascending by row — to its spill file. The key is
// the packed 16-byte [2]int64 on the integer path and the appendRowKey
// encoding otherwise, so the probe-time rebuild runs the exact in-memory
// insert paths.
func (jt *joinTable) spillPartition(pi int, rows []int32, hashes []uint64, enc *encodedRows, qm *QueryMem) (int64, error) {
	sw, err := qm.newSpillWriter(fmt.Sprintf("%s-p%03d.spill", jt.spillPrefix, pi))
	if err != nil {
		return 0, err
	}
	var kb [16]byte
	for _, row := range rows {
		var key []byte
		if jt.intKeys {
			a, b := jt.packRight(int(row))
			binary.LittleEndian.PutUint64(kb[0:8], uint64(a))
			binary.LittleEndian.PutUint64(kb[8:16], uint64(b))
			key = kb[:]
		} else {
			key = enc.row(int(row))
		}
		if err := sw.writeRecord(row, hashes[row], key); err != nil {
			sw.abort()
			return 0, err
		}
	}
	if err := sw.finish(); err != nil {
		return 0, err
	}
	jt.spillFiles[pi] = sw.name
	jt.spillRows[pi] = len(rows)
	return sw.bytes, nil
}

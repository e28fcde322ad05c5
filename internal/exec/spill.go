package exec

// Memory-governed execution: the query-scoped spill context (QueryMem),
// the spill-file row codec of the grace-hash join, and the working-set
// estimates operators reserve from the ledger. See doc.go, "Memory
// governance", for how partition-indexed spilling preserves the engine's
// bit-identity guarantee.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"repro/internal/mem"
)

// QueryMem is the per-query memory context operators draw on: the budget
// ledger reservations come from, and a lazily created per-query temp
// directory spill files live in. Cleanup removes the directory and must run
// on every query exit path, success or error — callers defer it right after
// construction. A nil *QueryMem means unlimited memory and no spilling;
// every operator accepts it. Spill counters live in the per-operator stats
// (JoinStats), not here.
type QueryMem struct {
	ledger *mem.Ledger
	root   string // parent dir for the spill dir; "" = os.TempDir()

	mu     sync.Mutex
	dir    string // created on first spill
	opSeq  int64  // uniquifies per-operator spill file prefixes
	closed bool

	// testFailAfterBytes, when > 0, injects a write error once a spill
	// writer has written that many bytes — the mid-spill failure hook used
	// by the error-path cleanup tests.
	testFailAfterBytes int64
}

// NewQueryMem creates the memory context of one query. ledger may be nil or
// unlimited (no spilling will ever trigger); root is the parent directory
// for spill files ("" = the system temp dir).
func NewQueryMem(ledger *mem.Ledger, root string) *QueryMem {
	return &QueryMem{ledger: ledger, root: root}
}

// Ledger returns the query's budget ledger (nil for a nil QueryMem).
func (q *QueryMem) Ledger() *mem.Ledger {
	if q == nil {
		return nil
	}
	return q.ledger
}

// opPrefix returns a query-unique spill-file prefix for one operator
// instance, so two joins in the same query never collide on file names.
func (q *QueryMem) opPrefix(kind string) string {
	q.mu.Lock()
	q.opSeq++
	n := q.opSeq
	q.mu.Unlock()
	return fmt.Sprintf("%s-%d", kind, n)
}

// spillDir returns the query's spill directory, creating it on first use.
func (q *QueryMem) spillDir() (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", fmt.Errorf("exec: spill after query cleanup")
	}
	if q.dir != "" {
		return q.dir, nil
	}
	dir, err := os.MkdirTemp(q.root, "lazyetl-spill-*")
	if err != nil {
		return "", fmt.Errorf("exec: creating spill dir: %w", err)
	}
	q.dir = dir
	return dir, nil
}

// Cleanup removes the query's spill directory and everything in it.
// Idempotent; safe on a nil QueryMem. Callers defer it immediately after
// NewQueryMem so spill files are reclaimed on error paths too.
func (q *QueryMem) Cleanup() error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	dir := q.dir
	q.dir = ""
	q.closed = true
	q.mu.Unlock()
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// ---------------------------------------------------------------------------
// Spill-row codec
// ---------------------------------------------------------------------------

// A spill file is a flat sequence of records, each
//
//	[u32 row][u64 hash][u32 keyLen][keyLen bytes of key]
//
// (little-endian). row is the batch-relative row index the record refers
// to, hash its key hash, and key the encoded key — appendRowKey bytes for
// generic keys, the packed 16-byte [2]int64 for integer-family join keys,
// so spilled rows rebuild tables with exactly the in-memory code paths.
// The format is deliberately dumb: fixed header, length-prefixed key, no
// framing to resynchronize on — any mismatch between the header and the
// remaining bytes is corruption and reading fails deterministically at the
// first bad record's offset.

const (
	spillHdrLen = 16
	// maxSpillKeyLen bounds a record's key so a corrupt length prefix
	// cannot demand an absurd allocation.
	maxSpillKeyLen = 1 << 24
)

// appendSpillRecord encodes one spill record onto buf.
func appendSpillRecord(buf []byte, row int32, hash uint64, key []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(row))
	buf = binary.LittleEndian.AppendUint64(buf, hash)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...)
}

// spillWriter streams records of one spilled partition into a file under
// the query's spill dir. Not safe for concurrent use; each partition
// owns its writer.
type spillWriter struct {
	q     *QueryMem
	f     *os.File
	w     *bufio.Writer
	name  string // file name relative to the spill dir
	rows  int64
	bytes int64
	buf   []byte
}

// newSpillWriter creates (truncating) the named spill file.
func (q *QueryMem) newSpillWriter(name string) (*spillWriter, error) {
	dir, err := q.spillDir()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("exec: creating spill file %s: %w", name, err)
	}
	return &spillWriter{q: q, f: f, w: bufio.NewWriterSize(f, 1<<16), name: name}, nil
}

// writeRecord appends one record to the file.
func (sw *spillWriter) writeRecord(row int32, hash uint64, key []byte) error {
	if fa := sw.q.testFailAfterBytes; fa > 0 && sw.bytes >= fa {
		return fmt.Errorf("exec: spill %s: injected write failure", sw.name)
	}
	sw.buf = appendSpillRecord(sw.buf[:0], row, hash, key)
	n, err := sw.w.Write(sw.buf)
	sw.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("exec: spill %s: %w", sw.name, err)
	}
	sw.rows++
	return nil
}

// finish flushes and closes the file; the writer's rows/bytes counters are
// folded into the operator's stats by its caller.
func (sw *spillWriter) finish() error {
	err := sw.w.Flush()
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("exec: spill %s: %w", sw.name, err)
	}
	return nil
}

// abort closes the file without recording it; the query cleanup removes it.
func (sw *spillWriter) abort() {
	sw.f.Close()
}

// spillReader streams records back from a spill file (or any reader, for
// tests). Corruption — a truncated record, an oversized key length — is
// reported with the file name and byte offset of the failing record, which
// is deterministic for a given file content.
type spillReader struct {
	name string
	f    *os.File // nil when wrapping a plain io.Reader
	r    *bufio.Reader
	off  int64 // offset of the record being read
	key  []byte
	hdr  [spillHdrLen]byte
}

// openSpillReader opens the named file under the query's spill dir.
func (q *QueryMem) openSpillReader(name string) (*spillReader, error) {
	dir, err := q.spillDir()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("exec: opening spill file %s: %w", name, err)
	}
	return &spillReader{name: name, f: f, r: bufio.NewReaderSize(f, 1<<16)}, nil
}

// newSpillReader wraps an in-memory reader (codec tests and the fuzzer).
func newSpillReader(name string, r io.Reader) *spillReader {
	return &spillReader{name: name, r: bufio.NewReader(r)}
}

// next returns the next record, or io.EOF at a clean end of file. The key
// slice is only valid until the following next call.
func (sr *spillReader) next() (row int32, hash uint64, key []byte, err error) {
	start := sr.off
	if _, err := io.ReadFull(sr.r, sr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("exec: spill %s: truncated record header at offset %d", sr.name, start)
	}
	sr.off += spillHdrLen
	row = int32(binary.LittleEndian.Uint32(sr.hdr[0:4]))
	hash = binary.LittleEndian.Uint64(sr.hdr[4:12])
	klen := binary.LittleEndian.Uint32(sr.hdr[12:16])
	if klen > maxSpillKeyLen {
		return 0, 0, nil, fmt.Errorf("exec: spill %s: corrupt key length %d at offset %d", sr.name, klen, start)
	}
	if cap(sr.key) < int(klen) {
		sr.key = make([]byte, klen)
	}
	sr.key = sr.key[:klen]
	if _, err := io.ReadFull(sr.r, sr.key); err != nil {
		return 0, 0, nil, fmt.Errorf("exec: spill %s: truncated record key at offset %d", sr.name, start)
	}
	sr.off += int64(klen)
	return row, hash, sr.key, nil
}

func (sr *spillReader) close() error {
	if sr.f == nil {
		return nil
	}
	return sr.f.Close()
}

// ---------------------------------------------------------------------------
// Working-set estimates
// ---------------------------------------------------------------------------

// joinPartBytes estimates the memory of one join partition table over nrows
// build rows: the power-of-two slot arrays plus, for generic keys, the
// expected key-arena bytes. avgKey is the measured mean encoded-key length
// (0 for the integer path).
func joinPartBytes(nrows int, intKeys bool, avgKey int64) int64 {
	slots := int64(nextPow2(2 * nrows))
	if slots < 2 {
		slots = 2
	}
	per := int64(4 + 4) // heads + tails
	if intKeys {
		per += 8 + 8 // keyA + keyB
	} else {
		per += 8 + 4 + 4 // hashes + keyOff + keyLen
	}
	return slots*per + int64(nrows)*avgKey
}

// aggGroupBytes estimates the marginal memory of one new aggregation group:
// its states, its map entry, and its copied key.
func aggGroupBytes(naggs int, keyLen int) int64 {
	return int64(naggs)*int64(unsafe.Sizeof(aggState{})) + int64(keyLen) + 64
}

// distinctSeenBytes is the per-element estimate for a COUNT(DISTINCT)
// seen-set entry: the 8-byte (or short string) key plus map overhead.
const distinctSeenBytes = 56

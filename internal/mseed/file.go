package mseed

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// RecordInfo locates one record within a file and carries its parsed
// header. It is the unit of metadata produced by a header-only scan and
// consumed by lazy payload extraction.
type RecordInfo struct {
	Header *Header
	Offset int64 // byte offset of the record within the file
}

// scanChunk is how many bytes ScanHeaders asks the source for at a time.
// A header-sized read per record costs a kernel crossing per record and, for
// the 512-byte and 4 KiB records archives use, pulls every page of the file
// through the page cache anyway; a chunk per crossing reads the same pages
// in O(file size / scanChunk) calls.
const scanChunk = 64 << 10

// chunkPool recycles ScanHeaders' chunk buffers: a metadata load scans
// thousands of files on a few goroutines.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, scanChunk)
	return &b
}}

// window is the part of an mSEED stream a scan currently holds: buf is the
// stream's bytes from offset base on. With a source (ra) it is a chunk that
// header refills on demand; without one, buf is the whole stream.
type window struct {
	ra   io.ReaderAt
	size int64 // length of the stream
	buf  []byte
	base int64
}

// header returns the leading bytes of the record at off: headerScanSize of
// them, fewer at the end of the stream. When they are not all buffered, the
// chunk is refilled from off — the offset of the next record, so the payload
// of a record that runs past the buffered bytes is never read.
func (w *window) header(off int64) ([]byte, error) {
	end := min(off+headerScanSize, w.size)
	if w.ra != nil && end > w.base+int64(len(w.buf)) { // offsets only grow: off >= w.base
		w.buf = w.buf[:min(int64(cap(w.buf)), w.size-off)]
		n, err := w.ra.ReadAt(w.buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("mseed: scan at offset %d: %w", off, err)
		}
		w.buf, w.base = w.buf[:n], off // a source shorter than size ends the stream early
	}
	end = min(end, w.base+int64(len(w.buf)))
	return w.buf[off-w.base : end-w.base], nil
}

// scan is the one header-scan loop. Headers are kept in slabs, one allocation
// for as many records as the rest of the stream holds at the current record
// length, and each is parsed over its predecessor so that the identification
// codes, which rarely change within a file, are shared strings
// (reuseTrimmed); the returned infos point into the slabs.
func (w *window) scan() ([]RecordInfo, error) {
	var (
		infos []RecordInfo
		slab  []Header
		h     Header // the record being parsed, over its predecessor
	)
	for off := int64(0); off < w.size; {
		hb, err := w.header(off)
		if err != nil {
			return nil, err
		}
		if len(hb) < fixedHeaderSize {
			return nil, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrShortRecord, len(hb), off)
		}
		if err := parseHeaderInto(&h, hb); err != nil {
			return nil, fmt.Errorf("mseed: record at offset %d: %w", off, err)
		}
		if off+int64(h.RecordLength) > w.size {
			return nil, fmt.Errorf("%w: record at offset %d extends past end of file", ErrShortRecord, off)
		}
		if len(slab) == cap(slab) {
			// Filled slabs stay where they are: infos points into them.
			slab = make([]Header, 0, (w.size-off)/int64(h.RecordLength))
			if infos == nil {
				infos = make([]RecordInfo, 0, cap(slab))
			}
		}
		slab = append(slab, h)
		infos = append(infos, RecordInfo{Header: &slab[len(slab)-1], Offset: off})
		off += int64(h.RecordLength)
	}
	return infos, nil
}

// ScanHeaders walks the records of an mSEED stream and parses the fixed
// header and blockettes of each; payloads are never parsed, which is what
// makes metadata-only loading cheap. The stream is read in chunks of
// scanChunk bytes, not header by header, and a record that extends past the
// buffered chunk is skipped without reading the rest of it.
func ScanHeaders(ra io.ReaderAt, size int64) ([]RecordInfo, error) {
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	return scanHeaders(ra, size, *bp)
}

// scanHeaders is ScanHeaders over a caller-supplied chunk buffer, whose
// capacity (at least headerScanSize) is the chunk size.
func scanHeaders(ra io.ReaderAt, size int64, chunk []byte) ([]RecordInfo, error) {
	w := window{ra: ra, size: size, buf: chunk[:0]}
	return w.scan()
}

// ScanBuffer walks the records of an in-memory mSEED stream: ScanHeaders for
// callers that already hold the bytes (e.g. a whole-file prefetch read).
// Headers parse straight out of data with no reads.
func ScanBuffer(data []byte) ([]RecordInfo, error) {
	w := window{size: int64(len(data)), buf: data}
	return w.scan()
}

// ScanFile runs ScanHeaders over a file on disk.
func ScanFile(path string) ([]RecordInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ScanHeaders(f, st.Size())
}

// ReadRecordSamples reads and decodes the payload of one previously scanned
// record. Only the payload bytes are read from the source.
func ReadRecordSamples(ra io.ReaderAt, ri RecordInfo) ([]int32, error) {
	h := ri.Header
	payload := make([]byte, h.RecordLength-h.DataOffset)
	if _, err := ra.ReadAt(payload, ri.Offset+int64(h.DataOffset)); err != nil {
		return nil, fmt.Errorf("mseed: read payload at offset %d: %w", ri.Offset, err)
	}
	return DecodePayload(h, payload)
}

// Record pairs a header with its decoded samples, as returned by ReadFile.
type Record struct {
	Header  *Header
	Samples []int32
}

// ReadFile fully decodes every record in the file, the whole-file reference
// decode that tests and benchmark fixtures check extraction against. The
// file is read once; headers and payloads parse from that buffer.
func ReadFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	infos, err := ScanBuffer(data)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(infos))
	for _, ri := range infos {
		h := ri.Header
		samples, err := DecodePayload(h, data[ri.Offset+int64(h.DataOffset):ri.Offset+int64(h.RecordLength)])
		if err != nil {
			return nil, fmt.Errorf("mseed: %s seq %d: %w", path, h.SeqNo, err)
		}
		recs = append(recs, Record{Header: h, Samples: samples})
	}
	return recs, nil
}

package mseed

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sineSamples(n int, amp, period float64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(amp * math.Sin(2*math.Pi*float64(i)/period))
	}
	return out
}

func writeTestFile(t *testing.T, path string, opts SeriesOptions, n int) []int32 {
	t.Helper()
	samples := sineSamples(n, 8000, 37)
	start := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	if _, err := WriteSeriesFile(path, opts, start, samples); err != nil {
		t.Fatalf("WriteSeriesFile: %v", err)
	}
	return samples
}

func TestWriteSeriesAndReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "NL.HGN..BHZ.mseed")
	opts := SeriesOptions{
		Network: "NL", Station: "HGN", Channel: "BHZ",
		SampleRate: 40, Encoding: EncodingSteim2, RecordLength: 512,
	}
	samples := writeTestFile(t, path, opts, 5000)

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("expected multiple records, got %d", len(recs))
	}
	var got []int32
	total := 0
	lastEnd := int64(0)
	for i, r := range recs {
		if r.Header.SeqNo != i+1 {
			t.Errorf("record %d: seq = %d", i, r.Header.SeqNo)
		}
		if r.Header.Station != "HGN" || r.Header.Network != "NL" {
			t.Errorf("record %d: codes %s", i, r.Header.SourceID())
		}
		if s := r.Header.StartNanos(); s < lastEnd {
			t.Errorf("record %d starts (%d) before previous ends (%d)", i, s, lastEnd)
		}
		lastEnd = r.Header.EndNanos()
		got = append(got, r.Samples...)
		total += r.Header.NumSamples
	}
	if total != len(samples) {
		t.Fatalf("total samples = %d, want %d", total, len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got[i], samples[i])
		}
	}
}

func TestScanHeadersReadsNoPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.mseed")
	opts := SeriesOptions{
		Network: "NL", Station: "DBN", Channel: "BHN",
		SampleRate: 40, Encoding: EncodingSteim2,
	}
	writeTestFile(t, path, opts, 3000)

	infos, err := ScanFile(path)
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	st, _ := os.Stat(path)
	if got := int64(len(infos)) * 512; got != st.Size() {
		t.Errorf("scan found %d records covering %d bytes; file is %d bytes",
			len(infos), got, st.Size())
	}
	// Offsets and record lengths must tile the file.
	for i, ri := range infos {
		if ri.Offset != int64(i)*512 {
			t.Errorf("record %d at offset %d, want %d", i, ri.Offset, int64(i)*512)
		}
		if ri.Header.RecordLength != 512 {
			t.Errorf("record %d length %d", i, ri.Header.RecordLength)
		}
		if ri.Header.NumSamples == 0 {
			t.Errorf("record %d declares zero samples", i)
		}
	}
}

func TestReadRecordSamplesSelective(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "y.mseed")
	opts := SeriesOptions{
		Network: "KO", Station: "ISK", Channel: "BHE",
		SampleRate: 20, Encoding: EncodingSteim1,
	}
	samples := writeTestFile(t, path, opts, 2500)

	infos, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Read only the middle record and verify it against the source series.
	mid := len(infos) / 2
	skip := 0
	for _, ri := range infos[:mid] {
		skip += ri.Header.NumSamples
	}
	got, err := ReadRecordSamples(f, infos[mid])
	if err != nil {
		t.Fatalf("ReadRecordSamples: %v", err)
	}
	for i, v := range got {
		if v != samples[skip+i] {
			t.Fatalf("sample %d of record %d: got %d, want %d", i, mid, v, samples[skip+i])
		}
	}
}

func TestWriteSeriesRecordStartTimes(t *testing.T) {
	var buf bytes.Buffer
	opts := SeriesOptions{
		Network: "NL", Station: "HGN", Channel: "BHZ",
		SampleRate: 40, Encoding: EncodingInt32, RecordLength: 512,
	}
	start := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	samples := sineSamples(500, 100, 9)
	if _, err := WriteSeries(&buf, opts, start, samples); err != nil {
		t.Fatal(err)
	}
	infos, err := ScanHeaders(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// INT32, 512-byte records, 64-byte header: 112 samples per record.
	wantPerRec := (512 - 64) / 4
	cursor := start.UnixNano()
	for i, ri := range infos {
		if got := ri.Header.StartNanos(); got != cursor {
			t.Errorf("record %d start = %d, want %d", i, got, cursor)
		}
		cursor += int64(float64(ri.Header.NumSamples) / 40 * 1e9)
		if i < len(infos)-1 && ri.Header.NumSamples != wantPerRec {
			t.Errorf("record %d has %d samples, want %d", i, ri.Header.NumSamples, wantPerRec)
		}
	}
}

func TestWriteSeriesValidation(t *testing.T) {
	var buf bytes.Buffer
	_, err := WriteSeries(&buf, SeriesOptions{SampleRate: 0}, time.Now(), []int32{1})
	if err == nil {
		t.Error("expected error for zero sample rate")
	}
	_, err = WriteSeries(&buf, SeriesOptions{SampleRate: 40, RecordLength: 333}, time.Now(), []int32{1})
	if err == nil {
		t.Error("expected error for bad record length")
	}
	// Empty series writes nothing and succeeds.
	n, err := WriteSeries(&buf, SeriesOptions{SampleRate: 40}, time.Now(), nil)
	if n != 0 || err != nil {
		t.Errorf("empty series: n=%d err=%v", n, err)
	}
}

func TestScanHeadersRejectsGarbage(t *testing.T) {
	junk := bytes.Repeat([]byte{0xAB}, 1024)
	if _, err := ScanHeaders(bytes.NewReader(junk), int64(len(junk))); err == nil {
		t.Error("expected error scanning garbage")
	}
	if _, err := ScanHeaders(bytes.NewReader(junk[:20]), 20); err == nil {
		t.Error("expected error scanning a short fragment")
	}
}

func TestScanFileMissing(t *testing.T) {
	if _, err := ScanFile(filepath.Join(t.TempDir(), "nope.mseed")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestFileSizeCompression(t *testing.T) {
	// A Steim2 file of a low-amplitude series must be much smaller than the
	// raw INT32 representation — this is the storage asymmetry that E3
	// (the 10x claim) builds on.
	dir := t.TempDir()
	n := 50_000
	samples := make([]int32, n)
	v := int32(0)
	for i := range samples {
		v += int32(i%9) - 4
		samples[i] = v
	}
	start := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	p1 := filepath.Join(dir, "steim2.mseed")
	p2 := filepath.Join(dir, "int32.mseed")
	if _, err := WriteSeriesFile(p1, SeriesOptions{Network: "NL", Station: "A", Channel: "BHZ", SampleRate: 40, Encoding: EncodingSteim2}, start, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSeriesFile(p2, SeriesOptions{Network: "NL", Station: "A", Channel: "BHZ", SampleRate: 40, Encoding: EncodingInt32}, start, samples); err != nil {
		t.Fatal(err)
	}
	s1, _ := os.Stat(p1)
	s2, _ := os.Stat(p2)
	if s1.Size()*2 >= s2.Size() {
		t.Errorf("steim2 file (%d B) not at least 2x smaller than int32 file (%d B)", s1.Size(), s2.Size())
	}
}

// mixedStream concatenates one Steim2 record per entry of lengths, with the
// station code changing every third record and a blockette 100 on every
// fourth record that has room for one, so a scan sees headers at irregular
// offsets, shared and fresh identification strings, and both data offsets.
func mixedStream(t testing.TB, lengths []int) []byte {
	t.Helper()
	var out []byte
	for i, n := range lengths {
		h := &Header{
			SeqNo:          i + 1,
			Quality:        QualityUnknown,
			Network:        "NL",
			Station:        []string{"HGN", "DBN", "ISK"}[i/3%3],
			Channel:        "BHZ",
			Start:          BTime{Year: 2010, Doy: 12, Hour: uint8(i % 24)},
			RateFactor:     40,
			RateMultiplier: 1,
			Encoding:       EncodingSteim2,
			RecordLength:   n,
		}
		if i%4 == 3 && n >= 512 {
			h.ActualRate = 39.5
		}
		rec, _, err := EncodeRecord(h, sineSamples(40, 500, 11), 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec...)
	}
	return out
}

// countingReaderAt counts the ReadAt calls that reach the source.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestScanHeadersChunked holds the chunked scan to the in-memory one: over
// streams that mix every record length class, end in a truncated record or
// in too few bytes for a header, or are empty, and at chunk sizes that put
// headers across chunk ends, ScanHeaders returns what ScanBuffer returns —
// the same infos, the same error text — and reads the source once per chunk,
// plus once per record longer than a chunk (skipped unread), not once per
// record.
func TestScanHeadersChunked(t *testing.T) {
	mixed := mixedStream(t, []int{128, 512, 4096, 65536, 128, 128, 512, 65536, 4096, 4096, 512, 128, 65536, 512})
	small := mixedStream(t, []int{512, 512, 128, 512, 128, 128, 512, 512, 512})
	streams := []struct {
		name string
		data []byte
	}{
		{"mixed", mixed},
		{"small", small},
		{"truncated-record", mixed[:len(mixed)-100]},
		{"trailing-bytes", append(append([]byte(nil), small...), small[:47]...)},
		{"trailing-header", append(append([]byte(nil), small...), small[:60]...)},
		{"empty", nil},
	}
	for _, s := range streams {
		want, wantErr := ScanBuffer(s.data)
		for _, chunk := range []int{headerScanSize, 100, 191, 1000, 4096 + 13, 65536, scanChunk, 1 << 20} {
			src := &countingReaderAt{r: bytes.NewReader(s.data)}
			got, err := scanHeaders(src, int64(len(s.data)), make([]byte, chunk))
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("%s, chunk %d: error %v, ScanBuffer says %v", s.name, chunk, err, wantErr)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, chunk %d: %d infos differ from ScanBuffer's %d", s.name, chunk, len(got), len(want))
			}
			// A refill starts at a record, and the next one comes when a
			// header ends past the chunk: a whole chunk further on when
			// headers cannot straddle a chunk end (every offset is a
			// multiple of 128, the shortest record), at least a chunk less
			// a header otherwise — unless the record itself is longer than
			// the chunk.
			stride := chunk
			if chunk%128 != 0 {
				stride = chunk - headerScanSize + 1
			}
			long := 0
			for _, ri := range want {
				if ri.Header.RecordLength > chunk {
					long++
				}
			}
			if limit := len(s.data)/stride + long + 1; src.reads > limit {
				t.Errorf("%s, chunk %d: %d reads for %d bytes in %d records (%d longer than a chunk), want at most %d",
					s.name, chunk, src.reads, len(s.data), len(want), long, limit)
			}
		}
	}
	// The exported entry point, at its own chunk size.
	src := &countingReaderAt{r: bytes.NewReader(mixed)}
	got, err := ScanHeaders(src, int64(len(mixed)))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ScanBuffer(mixed); !reflect.DeepEqual(got, want) {
		t.Error("ScanHeaders differs from ScanBuffer")
	}
	if limit := len(mixed)/scanChunk + 1; src.reads > limit {
		t.Errorf("ScanHeaders read %d times over %d bytes, want at most %d", src.reads, len(mixed), limit)
	}
}

// TestScanAllocatesPerFile gates what a header scan allocates: one slab of
// headers, one slice of infos and one string per identification code for a
// file of uniform records, however many there are — not a header and three
// strings per record.
func TestScanAllocatesPerFile(t *testing.T) {
	lengths := make([]int, 300)
	for i := range lengths {
		lengths[i] = 512
	}
	data := mixedStream(t, lengths)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ScanBuffer(data); err != nil {
			t.Fatal(err)
		}
	})
	// Three station codes alternate in mixedStream, each change a new string.
	if limit := float64(2 + 3 + len(lengths)/3); allocs > limit {
		t.Errorf("ScanBuffer of %d records allocated %.0f times, want at most %.0f", len(lengths), allocs, limit)
	}
}

// TestScanRejectsYearPast2261 covers a start year that has no nanosecond
// timestamp (time.Time.UnixNano is undefined past 2262-04-11): the header is
// malformed, and the scan says where, instead of loading a wrapped time.
func TestScanRejectsYearPast2261(t *testing.T) {
	record := func(year uint16, doy uint16) []byte {
		h := &Header{
			SeqNo: 1, Quality: QualityUnknown, Network: "NL", Station: "HGN", Channel: "BHZ",
			Start: BTime{Year: year, Doy: doy}, RateFactor: 40, RateMultiplier: 1,
			Encoding: EncodingSteim2, RecordLength: 512,
		}
		rec, _, err := EncodeRecord(h, []int32{1, 2, 3}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	infos, err := ScanBuffer(append(record(2010, 12), record(maxYear, 366)...))
	if err != nil {
		t.Fatalf("a start in %d must load: %v", maxYear, err)
	}
	if got, want := infos[1].Header.StartNanos(), time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(); got != want {
		t.Errorf("day 366 of %d starts at %d, want %d", maxYear, got, want)
	}
	for _, year := range []uint16{2262, 2300, 2500} {
		data := append(record(2010, 12), record(year, 1)...)
		_, err := ScanBuffer(data)
		if !errors.Is(err, ErrBadHeader) || !strings.Contains(err.Error(), "offset 512") {
			t.Errorf("year %d: ScanBuffer error %v, want ErrBadHeader naming offset 512", year, err)
		}
		if _, err := ScanHeaders(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadHeader) {
			t.Errorf("year %d: ScanHeaders error %v, want ErrBadHeader", year, err)
		}
	}
}

package mseed

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// DecodeRecord parses a complete record: header, blockettes and payload.
// The record tests and FuzzDecodeRecord drive the whole record path
// through it; the engine parses headers and payloads separately.
func DecodeRecord(buf []byte) (*Header, []int32, error) {
	h := new(Header)
	if err := parseHeaderInto(h, buf); err != nil {
		return nil, nil, err
	}
	if len(buf) < h.RecordLength {
		return nil, nil, fmt.Errorf("%w: header declares %d bytes, buffer has %d",
			ErrShortRecord, h.RecordLength, len(buf))
	}
	samples, err := DecodePayload(h, buf[h.DataOffset:h.RecordLength])
	if err != nil {
		return nil, nil, err
	}
	return h, samples, nil
}

func testHeader(enc Encoding, reclen int) *Header {
	return &Header{
		SeqNo:          1,
		Quality:        QualityUnknown,
		Station:        "ISK",
		Location:       "00",
		Channel:        "BHE",
		Network:        "KO",
		Start:          BTimeFromTime(time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC)),
		RateFactor:     40,
		RateMultiplier: 1,
		Encoding:       enc,
		RecordLength:   reclen,
	}
}

func TestEncodeDecodeRecordAllEncodings(t *testing.T) {
	samples := make([]int32, 100)
	for i := range samples {
		samples[i] = int32(1000*math.Sin(float64(i)/5)) + int32(i)
	}
	for _, enc := range []Encoding{EncodingInt16, EncodingInt32, EncodingFloat32, EncodingFloat64, EncodingSteim1, EncodingSteim2} {
		t.Run(enc.String(), func(t *testing.T) {
			in := samples
			if enc == EncodingInt16 {
				in = make([]int32, len(samples))
				for i := range in {
					in[i] = samples[i] % 30000
				}
			}
			h := testHeader(enc, 1024)
			buf, n, err := EncodeRecord(h, in, in[0])
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if len(buf) != 1024 {
				t.Fatalf("record length = %d, want 1024", len(buf))
			}
			gotH, gotS, err := DecodeRecord(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if gotH.Station != "ISK" || gotH.Network != "KO" || gotH.Channel != "BHE" || gotH.Location != "00" {
				t.Errorf("codes: %+v", gotH)
			}
			if gotH.Encoding != enc {
				t.Errorf("encoding = %v, want %v", gotH.Encoding, enc)
			}
			if gotH.NumSamples != n {
				t.Errorf("NumSamples = %d, want %d", gotH.NumSamples, n)
			}
			if gotH.SampleRate() != 40 {
				t.Errorf("rate = %g, want 40", gotH.SampleRate())
			}
			for i := 0; i < n; i++ {
				if gotS[i] != in[i] {
					t.Fatalf("sample %d: got %d, want %d", i, gotS[i], in[i])
				}
			}
		})
	}
}

func TestEncodeRecordSampleRateFractional(t *testing.T) {
	h := testHeader(EncodingInt32, 512)
	// 0.1 Hz: one sample every 10 seconds.
	f, m := rateToFactorMultiplier(0.1)
	h.RateFactor, h.RateMultiplier = f, m
	buf, _, err := EncodeRecord(h, []int32{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotH, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if r := gotH.SampleRate(); math.Abs(r-0.1) > 1e-9 {
		t.Errorf("rate = %g, want 0.1", r)
	}
}

func TestRateToFactorMultiplier(t *testing.T) {
	cases := []struct{ rate, want float64 }{
		{40, 40}, {100, 100}, {1, 1}, {0.1, 0.1}, {0.05, 0.05}, {20, 20},
		{32767, 32767},
	}
	for _, c := range cases {
		f, m := rateToFactorMultiplier(c.rate)
		h := Header{RateFactor: f, RateMultiplier: m}
		if got := h.SampleRate(); math.Abs(got-c.want)/c.want > 1e-6 {
			t.Errorf("rate %g: factor=%d mult=%d gives %g", c.rate, f, m, got)
		}
	}
}

func TestBlockette100OverridesRate(t *testing.T) {
	h := testHeader(EncodingInt32, 512)
	h.ActualRate = 39.98
	buf, _, err := EncodeRecord(h, []int32{5, 6, 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotH, gotS, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotH.SampleRate()-39.98) > 1e-3 {
		t.Errorf("rate = %g, want 39.98", gotH.SampleRate())
	}
	if gotH.DataOffset != 128 {
		t.Errorf("data offset = %d, want 128 with blockette 100", gotH.DataOffset)
	}
	if len(gotS) != 3 || gotS[2] != 7 {
		t.Errorf("samples = %v", gotS)
	}
}

func TestTimeCorrection(t *testing.T) {
	h := testHeader(EncodingInt32, 512)
	h.TimeCorrection = 5000 // 0.5 s in 0.1 ms units
	buf, _, err := EncodeRecord(h, []int32{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotH, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC).UnixNano()
	if got := gotH.StartNanos(); got != base+500_000_000 {
		t.Errorf("corrected start = %d, want %d", got, base+500_000_000)
	}
	// With activity bit 1 set, the correction is already applied upstream.
	gotH.ActivityFlags |= 0x02
	if got := gotH.StartNanos(); got != base {
		t.Errorf("uncorrected start = %d, want %d", got, base)
	}
}

func TestHeaderEndNanos(t *testing.T) {
	h := testHeader(EncodingInt32, 512)
	h.NumSamples = 41 // 40 Hz: 40 intervals = exactly 1 s
	start := h.StartNanos()
	if got := h.EndNanos(); got != start+1_000_000_000 {
		t.Errorf("end = %d, want start+1s (%d)", got, start+1_000_000_000)
	}
}

func TestHeaderSourceID(t *testing.T) {
	h := testHeader(EncodingInt32, 512)
	if got, want := h.SourceID(), "KO.ISK.00.BHE"; got != want {
		t.Errorf("SourceID = %q, want %q", got, want)
	}
}

func TestEncodeRecordErrors(t *testing.T) {
	h := testHeader(EncodingInt32, 500) // not a power of two
	if _, _, err := EncodeRecord(h, []int32{1}, 1); err == nil {
		t.Error("expected error for non-power-of-two record length")
	}
	h = testHeader(EncodingInt32, 512)
	if _, _, err := EncodeRecord(h, nil, 0); err == nil {
		t.Error("expected error for empty sample slice")
	}
	h = testHeader(EncodingInt16, 512)
	if _, _, err := EncodeRecord(h, []int32{1 << 20}, 0); err == nil {
		t.Error("expected range error for INT16 overflow")
	}
	h = testHeader(EncodingASCII, 512)
	if _, _, err := EncodeRecord(h, []int32{1}, 0); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("expected ErrBadEncoding, got %v", err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	if _, _, err := DecodeRecord(make([]byte, 10)); !errors.Is(err, ErrShortRecord) {
		t.Errorf("short buffer: got %v", err)
	}
	h := testHeader(EncodingInt32, 512)
	buf, _, err := EncodeRecord(h, []int32{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRecord(buf[:256]); !errors.Is(err, ErrShortRecord) {
		t.Errorf("truncated record: got %v", err)
	}
	// Corrupt the sequence number.
	bad := bytes.Clone(buf)
	bad[0] = 'x'
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad sequence: got %v", err)
	}
	// Corrupt the quality flag.
	bad = bytes.Clone(buf)
	bad[6] = 'Z'
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad quality: got %v", err)
	}
	// Destroy blockette 1000's type so no blockette 1000 is found.
	bad = bytes.Clone(buf)
	bad[48], bad[49] = 0, 50 // type 50, next 0 (chain ends)
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrNoBlockette1000) {
		t.Errorf("no blockette 1000: got %v", err)
	}
}

func TestRecordSteimContinuityAcrossRecords(t *testing.T) {
	// Encoding a series across two records with the proper prev sample must
	// reproduce the series exactly.
	rng := rand.New(rand.NewSource(5))
	samples := make([]int32, 900)
	v := int32(0)
	for i := range samples {
		v += rng.Int31n(100) - 50
		samples[i] = v
	}
	h1 := testHeader(EncodingSteim2, 512)
	buf1, n1, err := EncodeRecord(h1, samples, samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if n1 >= len(samples) {
		t.Fatalf("expected record 1 to fill up, consumed %d", n1)
	}
	h2 := testHeader(EncodingSteim2, 512)
	h2.SeqNo = 2
	buf2, n2, err := EncodeRecord(h2, samples[n1:], samples[n1-1])
	if err != nil {
		t.Fatal(err)
	}
	_, got1, err := DecodeRecord(buf1)
	if err != nil {
		t.Fatal(err)
	}
	_, got2, err := DecodeRecord(buf2)
	if err != nil {
		t.Fatal(err)
	}
	got := append(got1, got2...)
	for i := 0; i < n1+n2; i++ {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got[i], samples[i])
		}
	}
}

func TestLog2RecordLength(t *testing.T) {
	for exp := 7; exp <= 16; exp++ {
		got, err := log2RecordLength(1 << exp)
		if err != nil || int(got) != exp {
			t.Errorf("log2RecordLength(%d) = %d, %v", 1<<exp, got, err)
		}
	}
	for _, bad := range []int{0, 1, 64, 100, 513, 1 << 17} {
		if _, err := log2RecordLength(bad); err == nil {
			t.Errorf("log2RecordLength(%d): expected error", bad)
		}
	}
}

func TestEncodingString(t *testing.T) {
	cases := map[Encoding]string{
		EncodingASCII: "ASCII", EncodingInt16: "INT16", EncodingInt32: "INT32",
		EncodingFloat32: "FLOAT32", EncodingFloat64: "FLOAT64",
		EncodingSteim1: "STEIM1", EncodingSteim2: "STEIM2",
		Encoding(99): "ENCODING(99)",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", e, got, want)
		}
	}
	if !EncodingSteim2.Integer() || EncodingFloat32.Integer() {
		t.Error("Integer() classification wrong")
	}
}

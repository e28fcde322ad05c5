package mseed

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

// benchSamples builds a realistic small-difference series (correlated
// noise), the regime Steim compression is designed for.
func benchSamples(n int) []int32 {
	rng := rand.New(rand.NewSource(17))
	out := make([]int32, n)
	v := int32(0)
	for i := range out {
		v += rng.Int31n(201) - 100
		out[i] = v
	}
	return out
}

func BenchmarkSteim2Encode(b *testing.B) {
	samples := benchSamples(4096)
	b.SetBytes(int64(len(samples)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := steimEncode(samples, samples[0], 1024, steim2Packings, binary.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteim1Encode(b *testing.B) {
	samples := benchSamples(4096)
	b.SetBytes(int64(len(samples)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := steimEncode(samples, samples[0], 1024, steim1Packings, binary.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteim2Decode(b *testing.B) {
	samples := benchSamples(4096)
	payload, n, err := steimEncode(samples, samples[0], 1024, steim2Packings, binary.BigEndian)
	if err != nil || n != len(samples) {
		b.Fatal(err)
	}
	b.SetBytes(int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steimDecode(payload, n, true, binary.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteim1Decode(b *testing.B) {
	samples := benchSamples(4096)
	payload, n, err := steimEncode(samples, samples[0], 1024, steim1Packings, binary.BigEndian)
	if err != nil || n != len(samples) {
		b.Fatal(err)
	}
	b.SetBytes(int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steimDecode(payload, n, false, binary.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSteimDecodeLarge compares the unrolled production decoder with the
// retained scalar oracle on a 1M-sample payload — the bulk-ingest regime
// where the decode loop dominates cold-cache extraction.
func benchSteimDecodeLarge(b *testing.B, steim2 bool) {
	const n = 1 << 20
	samples := benchSamples(n)
	packings := steim1Packings
	if steim2 {
		packings = steim2Packings
	}
	payload, consumed, err := steimEncode(samples, samples[0], n/4, packings, binary.BigEndian)
	if err != nil || consumed != n {
		b.Fatalf("encode consumed %d of %d: %v", consumed, n, err)
	}
	b.Run("unrolled", func(b *testing.B) {
		dst := make([]int32, n)
		b.SetBytes(n * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := steimDecodeInto(dst, payload, steim2, binary.BigEndian); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(n * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := steimDecodeOracle(payload, n, steim2, binary.BigEndian); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSteimDecode1(b *testing.B) { benchSteimDecodeLarge(b, false) }

func BenchmarkSteimDecode2(b *testing.B) { benchSteimDecodeLarge(b, true) }

func BenchmarkInt32Decode(b *testing.B) {
	samples := benchSamples(4096)
	payload := make([]byte, len(samples)*4)
	if _, err := encodeRaw(payload, samples, EncodingInt32, binary.BigEndian); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(samples)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRaw(payload, len(samples), EncodingInt32, binary.BigEndian); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodingDensity reports the achieved bytes/sample of each
// encoding on the same series — the storage ablation behind experiment E3.
func BenchmarkEncodingDensity(b *testing.B) {
	samples := benchSamples(20000)
	start := time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	for _, enc := range []Encoding{EncodingSteim2, EncodingSteim1, EncodingInt32, EncodingFloat64} {
		b.Run(enc.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if _, err := WriteSeries(&buf, SeriesOptions{
					Network: "NL", Station: "HGN", Channel: "BHZ",
					SampleRate: 40, Encoding: enc,
				}, start, samples); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.ReportMetric(float64(size)/float64(len(samples)), "bytes/sample")
		})
	}
}

// BenchmarkHeaderScanVsFullDecode quantifies the asymmetry lazy ETL
// exploits: scanning headers only vs decoding every payload of a file.
func BenchmarkHeaderScanVsFullDecode(b *testing.B) {
	samples := benchSamples(50000)
	var buf bytes.Buffer
	if _, err := WriteSeries(&buf, SeriesOptions{
		Network: "NL", Station: "HGN", Channel: "BHZ",
		SampleRate: 40, Encoding: EncodingSteim2,
	}, time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC), samples); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	rd := bytes.NewReader(data)

	b.Run("headers-only", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ScanHeaders(rd, int64(len(data))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			infos, err := ScanHeaders(rd, int64(len(data)))
			if err != nil {
				b.Fatal(err)
			}
			for _, ri := range infos {
				if _, err := ReadRecordSamples(rd, ri); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkBTimeConversion times BTime.UnixNanos alone — what the metadata
// load pays per record start and end — over a varying fraction so the
// conversion is not hoisted out of the loop.
func BenchmarkBTimeConversion(b *testing.B) {
	bt := BTimeFromTime(time.Date(2010, 1, 12, 22, 15, 2, 123_400_000, time.UTC))
	var sink int64
	for i := 0; i < b.N; i++ {
		bt.Fract = uint16(i & 8191)
		sink += bt.UnixNanos()
	}
	if sink == math.MinInt64 {
		b.Fatal("impossible")
	}
}

package mseed

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzSteimDecode asserts the decoder's crash-safety contract: arbitrary
// payload bytes, sample counts and codec flags must produce a slice or an
// error, never a panic, and a successful decode must return exactly the
// declared number of samples. The seed corpus covers valid Steim1/Steim2
// payloads (so mutation starts from structurally plausible frames), short
// frames, corrupt control words and both byte orders.
func FuzzSteimDecode(f *testing.F) {
	// Valid payloads from the encoder, both levels and byte orders.
	samples := []int32{12, 12, 13, 10, -4, 100000, 99997, -70000, 0, 1, 2, 3, 5, 8, 13, 21}
	for _, steim2 := range []bool{false, true} {
		packings := steim1Packings
		if steim2 {
			packings = steim2Packings
		}
		for _, order := range []binary.ByteOrder{binary.BigEndian, binary.LittleEndian} {
			enc, n, err := steimEncode(samples, samples[0], 4, packings, order)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc, uint16(n), steim2, order == binary.BigEndian)
		}
	}
	// Structurally broken inputs.
	f.Add([]byte{}, uint16(1), false, true)
	f.Add(make([]byte, steimFrameSize-1), uint16(4), true, true)    // short frame
	f.Add(make([]byte, steimFrameSize), uint16(0xFFFF), true, true) // declares far more than present
	hostile := make([]byte, steimFrameSize)
	for i := range hostile {
		hostile[i] = 0xFF // every control code set, dnib 3 everywhere
	}
	f.Add(hostile, uint16(64), true, false)

	f.Fuzz(func(t *testing.T, payload []byte, numSamples uint16, steim2, bigEndian bool) {
		order := binary.ByteOrder(binary.LittleEndian)
		if bigEndian {
			order = binary.BigEndian
		}
		out, err := steimDecode(payload, int(numSamples), steim2, order)
		if err != nil {
			return
		}
		if len(out) != int(numSamples) {
			t.Fatalf("decode returned %d samples, header declared %d", len(out), numSamples)
		}
	})
}

// FuzzDecodeRecord drives the full record path — header parse, blockette
// walk, payload decode — over arbitrary byte buffers. The record layer is
// what untrusted repository files actually hit first, so it must be as
// panic-free as the codec underneath it.
func FuzzDecodeRecord(f *testing.F) {
	// A valid record as the structural seed.
	h := &Header{
		SeqNo:          1,
		Quality:        QualityUnknown,
		Network:        "NL",
		Station:        "HGN",
		Channel:        "BHZ",
		Start:          BTime{Year: 2010, Doy: 12, Hour: 22},
		RateFactor:     40,
		RateMultiplier: 1,
		Encoding:       EncodingSteim2,
		RecordLength:   512,
	}
	buf, _, err := EncodeRecord(h, []int32{1, 2, 3, 5, 8, 13, 21, 34}, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add(make([]byte, fixedHeaderSize))
	trunc := make([]byte, len(buf)/2)
	copy(trunc, buf)
	f.Add(trunc)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, samples, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if h == nil {
			t.Fatal("nil header with nil error")
		}
		if len(samples) != h.NumSamples {
			t.Fatalf("decoded %d samples, header declares %d", len(samples), h.NumSamples)
		}
	})
}

// FuzzScanHeadersChunked holds the chunked header scan to the in-memory one
// over arbitrary bytes and chunk sizes from one header (64 bytes) up: however
// the chunk ends fall — mid-header, mid-record, past the end — scanHeaders
// returns the infos and the error text ScanBuffer returns for the same
// bytes, and never panics.
func FuzzScanHeadersChunked(f *testing.F) {
	small := mixedStream(f, []int{512, 128, 512, 4096, 128, 128, 512})
	f.Add(small, uint16(0))
	f.Add(small, uint16(127))
	f.Add(small[:len(small)-100], uint16(1000)) // truncated last record
	f.Add(append(append([]byte(nil), small...), small[:40]...), uint16(449))
	f.Add(mixedStream(f, []int{4096, 128, 4096}), uint16(200)) // records longer than the chunk
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, extra uint16) {
		chunk := headerScanSize + int(extra)
		want, wantErr := ScanBuffer(data)
		got, err := scanHeaders(bytes.NewReader(data), int64(len(data)), make([]byte, chunk))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("chunk %d: error %v, ScanBuffer says %v", chunk, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: %d infos differ from ScanBuffer's %d", chunk, len(got), len(want))
		}
	})
}

package mseed

import (
	"encoding/binary"
	"fmt"
	"math"
)

// maxRecordSamples is the most samples one record can declare; the fixed
// header stores the count in a uint16.
const maxRecordSamples = math.MaxUint16

// log2RecordLength returns the blockette-1000 record-length exponent, or an
// error if n is not a power of two in the SEED-legal range.
func log2RecordLength(n int) (uint8, error) {
	for exp := uint8(7); exp <= 16; exp++ {
		if 1<<exp == n {
			return exp, nil
		}
	}
	return 0, fmt.Errorf("mseed: record length %d is not a power of two in [128, 65536]", n)
}

// EncodeRecord serializes one record. The header h provides the codes,
// start time, rate, encoding and record length; NumSamples, DataOffset and
// BlocketteOffset are set by this function. prev is the last sample of the
// preceding record (used for Steim difference continuity; ignored by raw
// encodings). Not all samples may fit; the returned count says how many
// were consumed, and h.NumSamples is updated to match.
func EncodeRecord(h *Header, samples []int32, prev int32) ([]byte, int, error) {
	exp, err := log2RecordLength(h.RecordLength)
	if err != nil {
		return nil, 0, err
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("mseed: cannot encode an empty record")
	}
	if len(samples) > maxRecordSamples {
		samples = samples[:maxRecordSamples]
	}

	order := binary.ByteOrder(binary.BigEndian)
	h.BigEndian = true
	h.BlocketteOffset = fixedHeaderSize
	h.DataOffset = 64
	if h.ActualRate != 0 {
		h.DataOffset = 128
	}
	if h.RecordLength < h.DataOffset+steimFrameSize {
		return nil, 0, fmt.Errorf("mseed: record length %d too small for header and payload", h.RecordLength)
	}

	buf := make([]byte, h.RecordLength)
	payload := buf[h.DataOffset:]

	var consumed int
	switch h.Encoding {
	case EncodingSteim1, EncodingSteim2:
		packings := steim1Packings
		if h.Encoding == EncodingSteim2 {
			packings = steim2Packings
		}
		frames := len(payload) / steimFrameSize
		enc, n, err := steimEncode(samples, prev, frames, packings, order)
		if err != nil {
			return nil, 0, err
		}
		copy(payload, enc)
		consumed = n
	default:
		n, err := encodeRaw(payload, samples, h.Encoding, order)
		if err != nil {
			return nil, 0, err
		}
		consumed = n
	}
	if consumed == 0 {
		return nil, 0, fmt.Errorf("mseed: record length %d fits no samples", h.RecordLength)
	}

	h.NumSamples = consumed
	marshalHeader(buf[:fixedHeaderSize], h, order)

	// Blockette 1000.
	b := buf[fixedHeaderSize:]
	order.PutUint16(b[0:2], 1000)
	next := uint16(0)
	if h.ActualRate != 0 {
		next = fixedHeaderSize + 8
	}
	order.PutUint16(b[2:4], next)
	b[4] = uint8(h.Encoding)
	b[5] = 1 // big-endian
	b[6] = exp
	b[7] = 0

	// Blockette 100 (actual sample rate), when requested.
	if h.ActualRate != 0 {
		b = buf[fixedHeaderSize+8:]
		order.PutUint16(b[0:2], 100)
		order.PutUint16(b[2:4], 0)
		order.PutUint32(b[4:8], math.Float32bits(float32(h.ActualRate)))
	}
	return buf, consumed, nil
}

// ParseRecordHeaderInto parses the fixed header and blockettes of one
// record into a caller-owned Header, overwriting every field. buf needs to
// cover the header and blockette chain (64 bytes for records written by this
// package); the payload is not touched. Reusing one Header across the records of a file
// avoids the per-record header and identifier-string allocations (unchanged
// station/channel/network codes are interned against the previous parse).
func ParseRecordHeaderInto(h *Header, buf []byte) error {
	return parseHeaderInto(h, buf)
}

// DecodePayload decodes the sample payload of a record whose header has
// already been parsed. payload must span from the header's data offset to
// the end of the record.
func DecodePayload(h *Header, payload []byte) ([]int32, error) {
	order := byteOrder(h)
	switch h.Encoding {
	case EncodingSteim1:
		return steimDecode(payload, h.NumSamples, false, order)
	case EncodingSteim2:
		return steimDecode(payload, h.NumSamples, true, order)
	default:
		return decodeRaw(payload, h.NumSamples, h.Encoding, order)
	}
}

// DecodePayloadInto decodes the sample payload into dst, which must hold
// exactly h.NumSamples values. It is the allocation-free variant of
// DecodePayload for callers that pool their sample buffers (the lazy-ETL
// run extractor decodes every record of a coalesced read into one reused
// per-worker buffer).
func DecodePayloadInto(h *Header, payload []byte, dst []int32) error {
	if len(dst) != h.NumSamples {
		return fmt.Errorf("mseed: decode buffer holds %d samples, header declares %d", len(dst), h.NumSamples)
	}
	order := byteOrder(h)
	switch h.Encoding {
	case EncodingSteim1:
		return steimDecodeInto(dst, payload, false, order)
	case EncodingSteim2:
		return steimDecodeInto(dst, payload, true, order)
	default:
		return decodeRawInto(dst, payload, h.Encoding, order)
	}
}

func byteOrder(h *Header) binary.ByteOrder {
	if h.BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

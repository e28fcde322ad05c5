package mseed

import (
	"encoding/binary"
	"fmt"
	"math"
)

func float32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// rawSampleSize returns the byte width of one sample for the fixed-width
// encodings, or 0 for compressed/unsupported encodings.
func rawSampleSize(e Encoding) int {
	switch e {
	case EncodingInt16:
		return 2
	case EncodingInt32, EncodingFloat32:
		return 4
	case EncodingFloat64:
		return 8
	}
	return 0
}

// encodeRaw packs samples with a fixed-width encoding into payload,
// returning the number of samples written (bounded by payload capacity).
func encodeRaw(payload []byte, samples []int32, e Encoding, order binary.ByteOrder) (int, error) {
	size := rawSampleSize(e)
	if size == 0 {
		return 0, fmt.Errorf("%w: %v", ErrBadEncoding, e)
	}
	n := len(payload) / size
	if n > len(samples) {
		n = len(samples)
	}
	for i := 0; i < n; i++ {
		switch e {
		case EncodingInt16:
			v := samples[i]
			if v > math.MaxInt16 || v < math.MinInt16 {
				return 0, fmt.Errorf("mseed: sample %d out of INT16 range", v)
			}
			order.PutUint16(payload[i*2:], uint16(int16(v)))
		case EncodingInt32:
			order.PutUint32(payload[i*4:], uint32(samples[i]))
		case EncodingFloat32:
			order.PutUint32(payload[i*4:], math.Float32bits(float32(samples[i])))
		case EncodingFloat64:
			order.PutUint64(payload[i*8:], math.Float64bits(float64(samples[i])))
		}
	}
	return n, nil
}

// decodeRaw unpacks numSamples fixed-width samples as int32 counts.
// Float payloads are truncated toward zero.
func decodeRaw(payload []byte, numSamples int, e Encoding, order binary.ByteOrder) ([]int32, error) {
	out := make([]int32, numSamples)
	if err := decodeRawInto(out, payload, e, order); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRawInto is decodeRaw into a caller-provided buffer (no allocation).
// The encoding switch is hoisted out of the per-sample loop.
func decodeRawInto(dst []int32, payload []byte, e Encoding, order binary.ByteOrder) error {
	size := rawSampleSize(e)
	if size == 0 {
		return fmt.Errorf("%w: %v", ErrBadEncoding, e)
	}
	if len(payload) < len(dst)*size {
		return fmt.Errorf("%w: need %d bytes for %d %v samples, have %d",
			ErrShortRecord, len(dst)*size, len(dst), e, len(payload))
	}
	switch e {
	case EncodingInt16:
		for i := range dst {
			dst[i] = int32(int16(order.Uint16(payload[i*2:])))
		}
	case EncodingInt32:
		for i := range dst {
			dst[i] = int32(order.Uint32(payload[i*4:]))
		}
	case EncodingFloat32:
		for i := range dst {
			dst[i] = int32(math.Float32frombits(order.Uint32(payload[i*4:])))
		}
	case EncodingFloat64:
		for i := range dst {
			dst[i] = int32(math.Float64frombits(order.Uint64(payload[i*8:])))
		}
	}
	return nil
}

package mseed

import (
	"encoding/binary"
	"fmt"
)

// steimDecodeOracle reconstructs numSamples samples from a Steim payload one
// difference at a time. It is the original, branch-per-difference decoder,
// kept verbatim as the differential-testing oracle for the unrolled
// production decoder (steimDecodeInto); see FuzzSteimUnrolledOracle.
func steimDecodeOracle(payload []byte, numSamples int, steim2 bool, order binary.ByteOrder) ([]int32, error) {
	if numSamples == 0 {
		return nil, nil
	}
	if len(payload)%steimFrameSize != 0 || len(payload) == 0 {
		return nil, ErrSteimShortFrame
	}
	nframes := len(payload) / steimFrameSize

	diffs := make([]int32, 0, numSamples)
	var x0, xn int32

	for f := 0; f < nframes && len(diffs) < numSamples; f++ {
		frame := payload[f*steimFrameSize:]
		control := order.Uint32(frame[0:4])
		for wi := 1; wi < wordsPerFrame && len(diffs) < numSamples; wi++ {
			code := (control >> (2 * uint(wordsPerFrame-1-wi))) & 3
			word := order.Uint32(frame[wi*4 : wi*4+4])
			if f == 0 && wi == 1 {
				x0 = int32(word)
				if code != steimCodeNone {
					return nil, fmt.Errorf("%w: X0 word has data code", ErrSteimCorrupt)
				}
				continue
			}
			if f == 0 && wi == 2 {
				xn = int32(word)
				if code != steimCodeNone {
					return nil, fmt.Errorf("%w: XN word has data code", ErrSteimCorrupt)
				}
				continue
			}
			switch code {
			case steimCodeNone:
				continue
			case steimCodeByte:
				for j := 0; j < 4; j++ {
					diffs = append(diffs, signExtend(word>>(8*uint(3-j)), 8))
				}
			case steimCodeSplit2:
				if !steim2 {
					diffs = append(diffs,
						signExtend(word>>16, 16),
						signExtend(word, 16))
					continue
				}
				switch word >> 30 {
				case 1:
					diffs = append(diffs, signExtend(word, 30))
				case 2:
					diffs = append(diffs, signExtend(word>>15, 15), signExtend(word, 15))
				case 3:
					diffs = append(diffs,
						signExtend(word>>20, 10), signExtend(word>>10, 10), signExtend(word, 10))
				default:
					return nil, fmt.Errorf("%w: dnib 0 in code-2 word", ErrSteimCorrupt)
				}
			case steimCodeSplit3:
				if !steim2 {
					diffs = append(diffs, int32(word))
					continue
				}
				switch word >> 30 {
				case 0:
					for j := 0; j < 5; j++ {
						diffs = append(diffs, signExtend(word>>(6*uint(4-j)), 6))
					}
				case 1:
					for j := 0; j < 6; j++ {
						diffs = append(diffs, signExtend(word>>(5*uint(5-j)), 5))
					}
				case 2:
					for j := 0; j < 7; j++ {
						diffs = append(diffs, signExtend(word>>(4*uint(6-j)), 4))
					}
				default:
					return nil, fmt.Errorf("%w: dnib 3 in code-3 word", ErrSteimCorrupt)
				}
			}
		}
	}

	if len(diffs) < numSamples {
		return nil, fmt.Errorf("%w: %d samples declared, %d differences found",
			ErrSteimCorrupt, numSamples, len(diffs))
	}
	out := make([]int32, numSamples)
	out[0] = x0
	for i := 1; i < numSamples; i++ {
		out[i] = out[i-1] + diffs[i]
	}
	if out[numSamples-1] != xn {
		return nil, fmt.Errorf("%w: got %d, frame says %d", ErrSteimIntegrity, out[numSamples-1], xn)
	}
	return out, nil
}

// signExtend interprets the low `bits` bits of v as a signed integer.
func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

package mseed

import (
	"encoding/binary"
	"fmt"
)

// This file holds the production Steim decoder. Where the tests' oracle
// (steim_oracle_test.go) walks one difference at a time through nested
// branches and appends, this decoder dispatches once per frame word to a
// straight-line block for the word's fixed nibble layout (4x8, 2x16, 7x4,
// 6x5, 5x6, 3x10, 2x15, 1x30, 1x32 bits) and finishes with a fused
// cumulative-sum reconstruction — the same keep-branches-out-of-the-inner-
// loop discipline the selection kernels use. Differences are decoded into the output buffer itself: dst[0] is
// overwritten by X0 during reconstruction and the difference that would sit
// there never enters the sum, so decode and cumulative sum share the buffer
// and a full decode performs zero allocations.

// steimDecode reconstructs numSamples samples from a Steim payload. It is
// the allocating wrapper around steimDecodeInto.
func steimDecode(payload []byte, numSamples int, steim2 bool, order binary.ByteOrder) ([]int32, error) {
	if numSamples == 0 {
		return nil, nil
	}
	out := make([]int32, numSamples)
	if err := steimDecodeInto(out, payload, steim2, order); err != nil {
		return nil, err
	}
	return out, nil
}

// steimDecodeInto decodes len(dst) samples into dst without allocating.
// Any order that is not binary.BigEndian is treated as little-endian (the
// only two orders an mSEED header can declare).
func steimDecodeInto(dst []int32, payload []byte, steim2 bool, order binary.ByteOrder) error {
	n := len(dst)
	if n == 0 {
		return nil
	}
	if len(payload)%steimFrameSize != 0 || len(payload) == 0 {
		return ErrSteimShortFrame
	}
	be := order == binary.ByteOrder(binary.BigEndian)
	nframes := len(payload) / steimFrameSize

	pos := 0 // differences written to dst
	var x0, xn int32
	for f := 0; f < nframes && pos < n; f++ {
		frame := payload[f*steimFrameSize : f*steimFrameSize+steimFrameSize]
		var w [wordsPerFrame]uint32
		if be {
			for i := range w {
				w[i] = binary.BigEndian.Uint32(frame[i*4:])
			}
		} else {
			for i := range w {
				w[i] = binary.LittleEndian.Uint32(frame[i*4:])
			}
		}
		control := w[0]
		wi := 1
		if f == 0 {
			// Words 1 and 2 of the first frame hold the forward and reverse
			// integration constants and must carry non-data control codes.
			x0 = int32(w[1])
			if (control>>28)&3 != steimCodeNone {
				return fmt.Errorf("%w: X0 word has data code", ErrSteimCorrupt)
			}
			xn = int32(w[2])
			if (control>>26)&3 != steimCodeNone {
				return fmt.Errorf("%w: XN word has data code", ErrSteimCorrupt)
			}
			wi = 3
		}
		for ; wi < wordsPerFrame && pos < n; wi++ {
			word := w[wi]
			switch (control >> (2 * uint(wordsPerFrame-1-wi))) & 3 {
			case steimCodeNone:

			case steimCodeByte: // 4 x 8-bit
				if pos+4 <= n {
					d := dst[pos : pos+4 : pos+4]
					d[0] = int32(int8(word >> 24))
					d[1] = int32(int8(word >> 16))
					d[2] = int32(int8(word >> 8))
					d[3] = int32(int8(word))
					pos += 4
				} else {
					for s := uint(24); pos < n; s -= 8 {
						dst[pos] = int32(int8(word >> s))
						pos++
					}
				}

			case steimCodeSplit2:
				if !steim2 { // Steim1: 2 x 16-bit
					if pos+2 <= n {
						d := dst[pos : pos+2 : pos+2]
						d[0] = int32(int16(word >> 16))
						d[1] = int32(int16(word))
						pos += 2
					} else {
						dst[pos] = int32(int16(word >> 16))
						pos++
					}
					continue
				}
				switch word >> 30 {
				case 1: // 1 x 30-bit
					dst[pos] = int32(word<<2) >> 2
					pos++
				case 2: // 2 x 15-bit
					if pos+2 <= n {
						d := dst[pos : pos+2 : pos+2]
						d[0] = int32(word<<2) >> 17
						d[1] = int32(word<<17) >> 17
						pos += 2
					} else {
						dst[pos] = int32(word<<2) >> 17
						pos++
					}
				case 3: // 3 x 10-bit
					if pos+3 <= n {
						d := dst[pos : pos+3 : pos+3]
						d[0] = int32(word<<2) >> 22
						d[1] = int32(word<<12) >> 22
						d[2] = int32(word<<22) >> 22
						pos += 3
					} else {
						for s := uint(2); pos < n; s += 10 {
							dst[pos] = int32(word<<s) >> 22
							pos++
						}
					}
				default:
					return fmt.Errorf("%w: dnib 0 in code-2 word", ErrSteimCorrupt)
				}

			case steimCodeSplit3:
				if !steim2 { // Steim1: 1 x 32-bit
					dst[pos] = int32(word)
					pos++
					continue
				}
				switch word >> 30 {
				case 0: // 5 x 6-bit
					if pos+5 <= n {
						d := dst[pos : pos+5 : pos+5]
						d[0] = int32(word<<2) >> 26
						d[1] = int32(word<<8) >> 26
						d[2] = int32(word<<14) >> 26
						d[3] = int32(word<<20) >> 26
						d[4] = int32(word<<26) >> 26
						pos += 5
					} else {
						for s := uint(2); pos < n; s += 6 {
							dst[pos] = int32(word<<s) >> 26
							pos++
						}
					}
				case 1: // 6 x 5-bit
					if pos+6 <= n {
						d := dst[pos : pos+6 : pos+6]
						d[0] = int32(word<<2) >> 27
						d[1] = int32(word<<7) >> 27
						d[2] = int32(word<<12) >> 27
						d[3] = int32(word<<17) >> 27
						d[4] = int32(word<<22) >> 27
						d[5] = int32(word<<27) >> 27
						pos += 6
					} else {
						for s := uint(2); pos < n; s += 5 {
							dst[pos] = int32(word<<s) >> 27
							pos++
						}
					}
				case 2: // 7 x 4-bit
					if pos+7 <= n {
						d := dst[pos : pos+7 : pos+7]
						d[0] = int32(word<<4) >> 28
						d[1] = int32(word<<8) >> 28
						d[2] = int32(word<<12) >> 28
						d[3] = int32(word<<16) >> 28
						d[4] = int32(word<<20) >> 28
						d[5] = int32(word<<24) >> 28
						d[6] = int32(word<<28) >> 28
						pos += 7
					} else {
						for s := uint(4); pos < n; s += 4 {
							dst[pos] = int32(word<<s) >> 28
							pos++
						}
					}
				default:
					return fmt.Errorf("%w: dnib 3 in code-3 word", ErrSteimCorrupt)
				}
			}
		}
	}

	if pos < n {
		return fmt.Errorf("%w: %d samples declared, %d differences found",
			ErrSteimCorrupt, n, pos)
	}
	// Fused cumulative-sum reconstruction, in place over the differences.
	v := x0
	dst[0] = x0
	for i := 1; i < n; i++ {
		v += dst[i]
		dst[i] = v
	}
	if v != xn {
		return fmt.Errorf("%w: got %d, frame says %d", ErrSteimIntegrity, v, xn)
	}
	return nil
}

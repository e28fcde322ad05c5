package mseed

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Steim compression (levels 1 and 2) encodes a series of int32 samples as
// first differences packed into 64-byte frames. Each frame holds sixteen
// 32-bit words; word 0 is a control word carrying a 2-bit code for every
// word in the frame. The first frame additionally stores the first sample
// (X0, the forward integration constant) and the last sample (XN, the
// reverse integration constant) in words 1 and 2, which lets a decoder
// verify the reconstruction.

const (
	steimFrameSize  = 64
	wordsPerFrame   = 16
	steimCodeNone   = 0 // non-data word (control, X0, XN)
	steimCodeByte   = 1 // four 8-bit differences
	steimCodeSplit2 = 2 // Steim1: two 16-bit; Steim2: dnib-selected 30/15/10-bit
	steimCodeSplit3 = 3 // Steim1: one 32-bit; Steim2: dnib-selected 6/5/4-bit
)

// Errors returned by the Steim codecs.
var (
	ErrSteimDiffRange  = errors.New("mseed: difference exceeds Steim2 30-bit range")
	ErrSteimCorrupt    = errors.New("mseed: corrupt Steim payload")
	ErrSteimIntegrity  = errors.New("mseed: Steim reverse integration constant mismatch")
	ErrSteimShortFrame = errors.New("mseed: Steim payload not a multiple of the frame size")
)

// steimPacking describes one way of packing n differences of a given bit
// width into a single 32-bit word.
type steimPacking struct {
	n    int   // differences per word
	bits uint  // bits per difference
	code uint8 // 2-bit control code
	dnib uint8 // 2-bit sub-code stored in the word's top bits (Steim2 only)
}

// Packings in decreasing density; the encoder picks the first that fits.
var steim1Packings = []steimPacking{
	{n: 4, bits: 8, code: steimCodeByte},
	{n: 2, bits: 16, code: steimCodeSplit2},
	{n: 1, bits: 32, code: steimCodeSplit3},
}

var steim2Packings = []steimPacking{
	{n: 7, bits: 4, code: steimCodeSplit3, dnib: 2},
	{n: 6, bits: 5, code: steimCodeSplit3, dnib: 1},
	{n: 5, bits: 6, code: steimCodeSplit3, dnib: 0},
	{n: 4, bits: 8, code: steimCodeByte},
	{n: 3, bits: 10, code: steimCodeSplit2, dnib: 3},
	{n: 2, bits: 15, code: steimCodeSplit2, dnib: 2},
	{n: 1, bits: 30, code: steimCodeSplit2, dnib: 1},
}

// fitsSigned reports whether v is representable as a signed integer of the
// given width.
func fitsSigned(v int64, bits uint) bool {
	if bits >= 64 {
		return true
	}
	lim := int64(1) << (bits - 1)
	return v >= -lim && v < lim
}

// steimEncode packs samples into at most maxFrames frames using the given
// packing table. It returns the encoded payload (always maxFrames*64 bytes,
// zero-padded) and the number of samples consumed. The first difference is
// computed against prev (the last sample of the preceding record, or the
// first sample itself for a fresh series; its value never affects decoding).
func steimEncode(samples []int32, prev int32, maxFrames int, packings []steimPacking, order binary.ByteOrder) ([]byte, int, error) {
	if len(samples) == 0 || maxFrames <= 0 {
		return nil, 0, nil
	}
	steim2 := len(packings) == len(steim2Packings)

	// Differences, in int64 to detect overflow.
	diffs := make([]int64, len(samples))
	diffs[0] = int64(samples[0]) - int64(prev)
	for i := 1; i < len(samples); i++ {
		diffs[i] = int64(samples[i]) - int64(samples[i-1])
	}

	payload := make([]byte, maxFrames*steimFrameSize)
	pos := 0        // next difference to encode
	framesUsed := 0 // frames actually written

	for f := 0; f < maxFrames && pos < len(diffs); f++ {
		framesUsed = f + 1
		frame := payload[f*steimFrameSize : (f+1)*steimFrameSize]
		var control uint32
		wi := 1
		if f == 0 {
			wi = 3 // words 1 and 2 hold X0 and XN, filled in afterwards
		}
		for ; wi < wordsPerFrame && pos < len(diffs); wi++ {
			var chosen *steimPacking
			for i := range packings {
				p := &packings[i]
				if len(diffs)-pos < p.n {
					continue
				}
				ok := true
				for j := 0; j < p.n; j++ {
					if !fitsSigned(diffs[pos+j], p.bits) {
						ok = false
						break
					}
				}
				if ok {
					chosen = p
					break
				}
			}
			if chosen == nil {
				// Retry allowing partial chunks at the tail: find the densest
				// packing whose width fits the remaining diffs one by one.
				for i := range packings {
					p := &packings[i]
					n := len(diffs) - pos
					if n > p.n {
						continue // a fuller packing was already rejected on width
					}
					ok := true
					for j := 0; j < n; j++ {
						if !fitsSigned(diffs[pos+j], p.bits) {
							ok = false
							break
						}
					}
					if ok {
						chosen = p
						break
					}
				}
			}
			if chosen == nil {
				return nil, 0, fmt.Errorf("%w (difference %d at sample %d)", ErrSteimDiffRange, diffs[pos], pos)
			}

			n := chosen.n
			if rem := len(diffs) - pos; n > rem {
				n = rem
			}
			var word uint32
			if steim2 && chosen.code != steimCodeByte {
				word = uint32(chosen.dnib) << 30
			}
			// Pack n values of width bits, most significant first. When the
			// chunk is partial (tail), missing trailing values stay zero:
			// the decoder reads chosen.n values from the word but only the
			// first numSamples differences ever enter the reconstruction.
			for j := 0; j < n; j++ {
				shift := uint(chosen.n-1-j) * chosen.bits
				mask := uint32(1)<<chosen.bits - 1
				if chosen.bits == 32 {
					mask = ^uint32(0)
				}
				word |= (uint32(int32(diffs[pos+j])) & mask) << shift
			}
			order.PutUint32(frame[wi*4:wi*4+4], word)
			control |= uint32(chosen.code) << (2 * uint(wordsPerFrame-1-wi))
			pos += n
		}
		order.PutUint32(frame[0:4], control)
	}

	consumed := pos
	// Backfill X0 and XN in frame 0, and trim unused trailing frames. A
	// decoder treats absent frames and all-zero control words identically,
	// so record buffers zero-padded past the returned payload stay valid.
	order.PutUint32(payload[4:8], uint32(samples[0]))
	order.PutUint32(payload[8:12], uint32(samples[consumed-1]))
	return payload[:framesUsed*steimFrameSize], consumed, nil
}

package mseed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Encoding identifies the payload sample encoding, per SEED blockette 1000.
type Encoding uint8

// Supported payload encodings (SEED appendix A codes).
const (
	EncodingASCII   Encoding = 0
	EncodingInt16   Encoding = 1
	EncodingInt32   Encoding = 3
	EncodingFloat32 Encoding = 4
	EncodingFloat64 Encoding = 5
	EncodingSteim1  Encoding = 10
	EncodingSteim2  Encoding = 11
)

func (e Encoding) String() string {
	switch e {
	case EncodingASCII:
		return "ASCII"
	case EncodingInt16:
		return "INT16"
	case EncodingInt32:
		return "INT32"
	case EncodingFloat32:
		return "FLOAT32"
	case EncodingFloat64:
		return "FLOAT64"
	case EncodingSteim1:
		return "STEIM1"
	case EncodingSteim2:
		return "STEIM2"
	default:
		return fmt.Sprintf("ENCODING(%d)", uint8(e))
	}
}

// Quality indicators from the fixed header (field 2).
const (
	QualityUnknown    = 'D' // indeterminate
	QualityRaw        = 'R' // raw waveform, no QC
	QualityControlled = 'Q' // quality controlled
	QualityModified   = 'M' // data center modified
)

// Errors returned by header parsing.
var (
	ErrShortRecord     = errors.New("mseed: record too short")
	ErrBadHeader       = errors.New("mseed: malformed fixed header")
	ErrNoBlockette1000 = errors.New("mseed: record has no blockette 1000")
	ErrBadEncoding     = errors.New("mseed: unsupported encoding")
)

const (
	fixedHeaderSize = 48
	// headerScanSize is how many leading bytes of a record must be read to
	// parse the fixed header plus the blockette chain as written by this
	// package (blockette 1000 and optionally blockette 100).
	headerScanSize = 64
)

// Header is the parsed fixed data header of one mSEED record, together with
// the fields lifted out of its blockettes that are needed to locate and
// decode the payload.
type Header struct {
	SeqNo    int    // record sequence number within the file (000001-999999)
	Quality  byte   // 'D', 'R', 'Q' or 'M'
	Station  string // up to 5 chars, trimmed
	Location string // up to 2 chars, trimmed
	Channel  string // up to 3 chars, trimmed
	Network  string // up to 2 chars, trimmed

	Start          BTime
	NumSamples     int
	RateFactor     int16
	RateMultiplier int16

	ActivityFlags    uint8
	IOFlags          uint8
	DataQualityFlags uint8

	TimeCorrection int32 // 0.0001 s units; applied unless bit 1 of ActivityFlags set

	DataOffset      int // byte offset of payload within the record
	BlocketteOffset int // byte offset of first blockette

	// From blockette 1000:
	Encoding     Encoding
	BigEndian    bool
	RecordLength int // full record length in bytes (2^n)

	// From blockette 100, if present (overrides the factor/multiplier rate):
	ActualRate float64 // 0 when absent
}

// SampleRate returns the nominal sample rate in Hz, derived from the
// factor/multiplier pair per the SEED convention, or from blockette 100
// when present.
func (h *Header) SampleRate() float64 {
	if h.ActualRate != 0 {
		return h.ActualRate
	}
	f, m := float64(h.RateFactor), float64(h.RateMultiplier)
	switch {
	case h.RateFactor > 0 && h.RateMultiplier > 0:
		return f * m
	case h.RateFactor > 0 && h.RateMultiplier < 0:
		return -f / m
	case h.RateFactor < 0 && h.RateMultiplier > 0:
		return -m / f
	case h.RateFactor < 0 && h.RateMultiplier < 0:
		return 1 / (f * m)
	default:
		return 0
	}
}

// StartNanos returns the corrected record start time in nanoseconds since
// the Unix epoch. The time correction is applied unless the header flags
// say it is already included (activity flag bit 1).
func (h *Header) StartNanos() int64 {
	ns := h.Start.UnixNanos()
	if h.ActivityFlags&0x02 == 0 {
		ns += int64(h.TimeCorrection) * 100_000
	}
	return ns
}

// EndNanos returns the time of the last sample in the record.
func (h *Header) EndNanos() int64 {
	rate := h.SampleRate()
	if rate <= 0 || h.NumSamples == 0 {
		return h.StartNanos()
	}
	return h.StartNanos() + int64(float64(h.NumSamples-1)/rate*1e9)
}

// SourceID returns the conventional NET.STA.LOC.CHAN identifier.
func (h *Header) SourceID() string {
	return h.Network + "." + h.Station + "." + h.Location + "." + h.Channel
}

// rateToFactorMultiplier converts a sample rate in Hz to the SEED
// factor/multiplier pair. Integer rates map to (rate, 1); sub-Hz rates of
// the form 1/n map to (-n, 1); anything else uses a scaled approximation.
func rateToFactorMultiplier(rate float64) (int16, int16) {
	if rate <= 0 {
		return 0, 0
	}
	if rate == float64(int64(rate)) && rate <= 32767 {
		return int16(rate), 1
	}
	inv := 1 / rate
	if inv == float64(int64(inv)) && inv <= 32767 {
		return int16(-inv), 1
	}
	// Approximate fractional rates as factor/multiplier = (rate*1000)/-1000.
	f := rate * 1000
	if f <= 32767 {
		return int16(f), -1000
	}
	return int16(rate), 1
}

// padRight space-pads s to width n, truncating if longer.
func padRight(s string, n int) string {
	if len(s) >= n {
		return s[:n]
	}
	return s + strings.Repeat(" ", n-len(s))
}

// marshalHeader writes the 48-byte fixed header. The caller provides the
// byte order (this package always writes big-endian, but the function is
// order-parametric so the round-trip tests can exercise both).
func marshalHeader(buf []byte, h *Header, order binary.ByteOrder) {
	copy(buf[0:6], fmt.Sprintf("%06d", h.SeqNo))
	buf[6] = h.Quality
	buf[7] = ' '
	copy(buf[8:13], padRight(h.Station, 5))
	copy(buf[13:15], padRight(h.Location, 2))
	copy(buf[15:18], padRight(h.Channel, 3))
	copy(buf[18:20], padRight(h.Network, 2))
	h.Start.marshal(buf[20:30], order)
	order.PutUint16(buf[30:32], uint16(h.NumSamples))
	order.PutUint16(buf[32:34], uint16(h.RateFactor))
	order.PutUint16(buf[34:36], uint16(h.RateMultiplier))
	buf[36] = h.ActivityFlags
	buf[37] = h.IOFlags
	buf[38] = h.DataQualityFlags
	buf[39] = 1 // number of blockettes that follow (blockette 1000 always written)
	if h.ActualRate != 0 {
		buf[39] = 2
	}
	order.PutUint32(buf[40:44], uint32(h.TimeCorrection))
	order.PutUint16(buf[44:46], uint16(h.DataOffset))
	order.PutUint16(buf[46:48], uint16(h.BlocketteOffset))
}

// reuseTrimmed returns the space-trimmed field as a string, reusing prev
// when the content is unchanged. Reused headers (the run extractor parses
// every record of a file into one pooled Header) then pay zero string
// allocations, since the identification codes rarely change within a file.
func reuseTrimmed(prev string, raw []byte) string {
	end := len(raw)
	for end > 0 && raw[end-1] == ' ' {
		end--
	}
	if prev == string(raw[:end]) { // compiler-optimized, no allocation
		return prev
	}
	return string(raw[:end])
}

// parseHeaderInto is parseHeader into a caller-owned (and typically reused)
// Header. Every field is overwritten; on error the header contents are
// unspecified.
func parseHeaderInto(h *Header, buf []byte) error {
	if len(buf) < fixedHeaderSize {
		return ErrShortRecord
	}
	var seq int
	for _, c := range buf[0:6] {
		if c < '0' || c > '9' {
			if c == ' ' {
				continue
			}
			return fmt.Errorf("%w: bad sequence number %q", ErrBadHeader, buf[0:6])
		}
		seq = seq*10 + int(c-'0')
	}
	q := buf[6]
	if q != QualityUnknown && q != QualityRaw && q != QualityControlled && q != QualityModified {
		return fmt.Errorf("%w: bad quality indicator %q", ErrBadHeader, q)
	}

	h.SeqNo = seq
	h.Quality = q
	h.Station = reuseTrimmed(h.Station, buf[8:13])
	h.Location = reuseTrimmed(h.Location, buf[13:15])
	h.Channel = reuseTrimmed(h.Channel, buf[15:18])
	h.Network = reuseTrimmed(h.Network, buf[18:20])

	// Byte order is declared in blockette 1000, but we need an order to find
	// blockette 1000. Use the standard year-sanity heuristic: try big-endian
	// first and fall back to little-endian if the year is implausible.
	order := binary.ByteOrder(binary.BigEndian)
	if y := order.Uint16(buf[20:22]); y < minYear || y > maxYear {
		order = binary.LittleEndian
		if y := order.Uint16(buf[20:22]); y < minYear || y > maxYear {
			return fmt.Errorf("%w: implausible start year", ErrBadHeader)
		}
	}

	h.Start = unmarshalBTime(buf[20:30], order)
	if !h.Start.Valid() {
		return fmt.Errorf("%w: invalid start time %v", ErrBadHeader, h.Start)
	}
	h.NumSamples = int(order.Uint16(buf[30:32]))
	h.RateFactor = int16(order.Uint16(buf[32:34]))
	h.RateMultiplier = int16(order.Uint16(buf[34:36]))
	h.ActivityFlags = buf[36]
	h.IOFlags = buf[37]
	h.DataQualityFlags = buf[38]
	numBlockettes := int(buf[39])
	h.TimeCorrection = int32(order.Uint32(buf[40:44]))
	h.DataOffset = int(order.Uint16(buf[44:46]))
	h.BlocketteOffset = int(order.Uint16(buf[46:48]))

	// Blockette-derived fields must not leak from a previous parse into a
	// reused header.
	h.Encoding = 0
	h.BigEndian = false
	h.RecordLength = 0
	h.ActualRate = 0

	// Follow the blockette chain.
	off := h.BlocketteOffset
	seen := 0
	for off != 0 && seen < numBlockettes {
		if off+4 > len(buf) {
			return fmt.Errorf("%w: blockette at %d beyond scanned bytes", ErrBadHeader, off)
		}
		btype := order.Uint16(buf[off : off+2])
		next := int(order.Uint16(buf[off+2 : off+4]))
		switch btype {
		case 1000:
			if off+8 > len(buf) {
				return fmt.Errorf("%w: truncated blockette 1000", ErrBadHeader)
			}
			h.Encoding = Encoding(buf[off+4])
			h.BigEndian = buf[off+5] == 1
			if lenExp := buf[off+6]; lenExp >= 7 && lenExp <= 16 {
				h.RecordLength = 1 << lenExp
			} else {
				return fmt.Errorf("%w: record length exponent %d", ErrBadHeader, buf[off+6])
			}
		case 100:
			if off+8 > len(buf) {
				return fmt.Errorf("%w: truncated blockette 100", ErrBadHeader)
			}
			bits := order.Uint32(buf[off+4 : off+8])
			h.ActualRate = float64(float32FromBits(bits))
		}
		seen++
		if next != 0 && next <= off {
			return fmt.Errorf("%w: blockette chain does not advance", ErrBadHeader)
		}
		off = next
	}
	if h.RecordLength == 0 {
		return ErrNoBlockette1000
	}
	// A corrupt data offset must fail here, not as a slice panic when the
	// payload window buf[DataOffset:RecordLength] is taken (fuzz finding).
	if h.DataOffset > h.RecordLength {
		return fmt.Errorf("%w: data offset %d beyond record length %d", ErrBadHeader, h.DataOffset, h.RecordLength)
	}
	// The declared word order must agree with the heuristic that located the
	// blockette; records written by this package are always consistent.
	if h.BigEndian != (order == binary.ByteOrder(binary.BigEndian)) {
		return fmt.Errorf("%w: word-order flag contradicts header layout", ErrBadHeader)
	}
	return nil
}

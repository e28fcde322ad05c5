package mseed

import (
	"encoding/binary"
	"fmt"
	"time"
)

// BTime is the SEED binary time structure: a calendar timestamp with
// 0.1-millisecond resolution, stored as year + day-of-year.
type BTime struct {
	Year   uint16 // e.g. 2010
	Doy    uint16 // day of year, 1-366
	Hour   uint8  // 0-23
	Minute uint8  // 0-59
	Second uint8  // 0-59 (60 never used; SEED has no leap-second flag here)
	Fract  uint16 // 0.0001 s units, 0-9999
}

const btimeSize = 10

// BTimeFromTime converts a time.Time to a BTime, truncating to 0.1 ms.
func BTimeFromTime(t time.Time) BTime {
	t = t.UTC()
	return BTime{
		Year:   uint16(t.Year()),
		Doy:    uint16(t.YearDay()),
		Hour:   uint8(t.Hour()),
		Minute: uint8(t.Minute()),
		Second: uint8(t.Second()),
		Fract:  uint16(t.Nanosecond() / 100_000),
	}
}

// Time converts the BTime to a time.Time in UTC, for display. Hot paths use
// UnixNanos, which does no calendar arithmetic.
func (b BTime) Time() time.Time {
	return time.Date(int(b.Year), 1, 1, int(b.Hour), int(b.Minute), int(b.Second),
		int(b.Fract)*100_000, time.UTC).
		AddDate(0, 0, int(b.Doy)-1)
}

// Start years a header may carry. time.Time.UnixNano is undefined past
// 2262-04-11, so a later year has no nanosecond timestamp to load; day 366 of
// maxYear still rolls into a representable 2262-01-01.
const (
	minYear = 1900
	maxYear = 2261
)

// UnixNanos returns the BTime as nanoseconds since the Unix epoch, equal to
// Time().UnixNano() for every Valid time: the days from 0001-01-01 to January
// 1st of Year in closed form (a day of year past the year's end keeps rolling
// into the next year, as Time does), less the 719162 days to 1970-01-01.
func (b BTime) UnixNanos() int64 {
	y := int64(b.Year) - 1
	days := y*365 + y/4 - y/100 + y/400 - 719162 + int64(b.Doy) - 1
	secs := ((days*24+int64(b.Hour))*60+int64(b.Minute))*60 + int64(b.Second)
	return secs*1_000_000_000 + int64(b.Fract)*100_000
}

// Valid reports whether all fields are within their SEED-defined ranges and
// the year is one UnixNanos can represent.
func (b BTime) Valid() bool {
	return b.Year >= minYear && b.Year <= maxYear &&
		b.Doy >= 1 && b.Doy <= 366 &&
		b.Hour <= 23 && b.Minute <= 59 && b.Second <= 59 &&
		b.Fract <= 9999
}

func (b BTime) String() string {
	return fmt.Sprintf("%04d,%03d,%02d:%02d:%02d.%04d",
		b.Year, b.Doy, b.Hour, b.Minute, b.Second, b.Fract)
}

// marshal writes the 10-byte binary form using the given byte order.
func (b BTime) marshal(buf []byte, order binary.ByteOrder) {
	order.PutUint16(buf[0:2], b.Year)
	order.PutUint16(buf[2:4], b.Doy)
	buf[4] = b.Hour
	buf[5] = b.Minute
	buf[6] = b.Second
	buf[7] = 0 // unused alignment byte
	order.PutUint16(buf[8:10], b.Fract)
}

// unmarshalBTime parses the 10-byte binary form using the given byte order.
func unmarshalBTime(buf []byte, order binary.ByteOrder) BTime {
	return BTime{
		Year:   order.Uint16(buf[0:2]),
		Doy:    order.Uint16(buf[2:4]),
		Hour:   buf[4],
		Minute: buf[5],
		Second: buf[6],
		Fract:  order.Uint16(buf[8:10]),
	}
}

package mseed

import (
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"
)

func TestBTimeRoundTripTime(t *testing.T) {
	cases := []time.Time{
		time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC),
		time.Date(2010, 1, 12, 22, 15, 2, 999_900_000, time.UTC),
		time.Date(2000, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2004, 2, 29, 0, 0, 0, 100_000, time.UTC), // leap day, 0.1 ms
		time.Date(1988, 6, 1, 12, 30, 45, 500_000_000, time.UTC),
	}
	for _, want := range cases {
		b := BTimeFromTime(want)
		if got := b.Time(); !got.Equal(want) {
			t.Errorf("BTime round trip: got %v, want %v", got, want)
		}
	}
}

func TestBTimeTruncatesBelowTenthMillisecond(t *testing.T) {
	in := time.Date(2010, 1, 12, 22, 15, 0, 123_456_789, time.UTC)
	b := BTimeFromTime(in)
	want := time.Date(2010, 1, 12, 22, 15, 0, 123_400_000, time.UTC)
	if got := b.Time(); !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBTimeDayOfYear(t *testing.T) {
	b := BTimeFromTime(time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC))
	if b.Doy != 60 { // 2010 is not a leap year: 31+28+1
		t.Errorf("doy = %d, want 60", b.Doy)
	}
	b = BTimeFromTime(time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC))
	if b.Doy != 61 { // 2012 is a leap year
		t.Errorf("doy = %d, want 61", b.Doy)
	}
}

func TestBTimeMarshalRoundTrip(t *testing.T) {
	for _, order := range []binary.ByteOrder{binary.BigEndian, binary.LittleEndian} {
		in := BTime{Year: 2013, Doy: 238, Hour: 13, Minute: 59, Second: 7, Fract: 9999}
		var buf [btimeSize]byte
		in.marshal(buf[:], order)
		if got := unmarshalBTime(buf[:], order); got != in {
			t.Errorf("%v: round trip got %+v, want %+v", order, got, in)
		}
	}
}

func TestBTimeMarshalPropertyQuick(t *testing.T) {
	f := func(ns int64) bool {
		// Clamp to a representable window: 1970..2200.
		sec := ns % (7_260 * 365 * 24 * 3600)
		if sec < 0 {
			sec = -sec
		}
		in := BTimeFromTime(time.Unix(sec%(230*365*24*3600), (ns%1e9+1e9)%1e9).UTC())
		var buf [btimeSize]byte
		in.marshal(buf[:], binary.BigEndian)
		return unmarshalBTime(buf[:], binary.BigEndian) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBTimeValid(t *testing.T) {
	valid := BTime{Year: 2010, Doy: 12, Hour: 23, Minute: 59, Second: 59, Fract: 9999}
	if !valid.Valid() {
		t.Error("expected valid")
	}
	invalid := []BTime{
		{Year: 1800, Doy: 1},
		{Year: 2262, Doy: 1}, // past what UnixNanos can represent
		{Year: 2010, Doy: 0},
		{Year: 2010, Doy: 367},
		{Year: 2010, Doy: 1, Hour: 24},
		{Year: 2010, Doy: 1, Minute: 60},
		{Year: 2010, Doy: 1, Second: 60},
		{Year: 2010, Doy: 1, Fract: 10000},
	}
	for i, b := range invalid {
		if b.Valid() {
			t.Errorf("case %d: expected invalid: %+v", i, b)
		}
	}
}

func TestBTimeString(t *testing.T) {
	b := BTime{Year: 2010, Doy: 12, Hour: 22, Minute: 15, Second: 2, Fract: 42}
	if got, want := b.String(), "2010,012,22:15:02.0042"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestBTimeUnixNanosMatchesTime holds the integer conversion to the calendar
// one over every start time a header may carry: each year Valid admits, each
// day of year — day 366 of a non-leap year included, which keeps rolling
// into the next year — and the corners of the clock fields.
func TestBTimeUnixNanosMatchesTime(t *testing.T) {
	clocks := []BTime{
		{},
		{Hour: 23, Minute: 59, Second: 59, Fract: 9999},
		{Hour: 12, Minute: 30, Second: 45, Fract: 5000},
		{Hour: 0, Minute: 0, Second: 1, Fract: 1},
		{Hour: 22, Minute: 15, Second: 2, Fract: 1234},
	}
	for year := minYear; year <= maxYear; year++ {
		for doy := 1; doy <= 366; doy++ {
			for _, b := range clocks {
				b.Year, b.Doy = uint16(year), uint16(doy)
				if !b.Valid() {
					t.Fatalf("%v is not Valid", b)
				}
				if got, want := b.UnixNanos(), b.Time().UnixNano(); got != want {
					t.Fatalf("%v: UnixNanos() = %d, Time().UnixNano() = %d", b, got, want)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/column"
	"repro/internal/warehouse"
)

// flushAt is the answer size past which writeResult stops buffering, so a
// response holds O(flushAt) memory however many rows it has.
const flushAt = 256 << 10

// answerBufs holds the buffers answers are encoded into; one that grew past
// flushAt is dropped.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResult writes a /query or /execute answer: in one Write with a
// Content-Length below flushAt, chunked, flushAt at a time, above it.
func writeResult(rw http.ResponseWriter, res *warehouse.Result, trace bool) {
	bp := answerBufs.Get().(*[]byte)
	rw.Header().Set("Content-Type", "application/json")
	b, streamed := appendResult((*bp)[:0], res, trace, rw)
	if !streamed {
		rw.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	_, _ = rw.Write(b)
	if cap(b) <= flushAt {
		*bp = b
		answerBufs.Put(bp)
	}
}

// appendResult appends {"columns":[...],"rows":[[...],...],"row_count":N,
// "elapsed_ns":E[,"trace":{...}]}\n to b — byte for byte what json.Encoder
// writes for it — read straight from the batch's vectors, boxing nothing.
// With a non-nil w, b is written to w and emptied whenever it reaches
// flushAt after a row, and streamed reports that it was (a failed write
// drops the rest of the answer).
func appendResult(b []byte, res *warehouse.Result, trace bool, w io.Writer) (_ []byte, streamed bool) {
	b = append(b, `{"columns":[`...) // never null: Columns is the batch's Names
	for j, name := range res.Columns {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendString(b, name)
	}
	// One writer per column, chosen here; up to eight live on the stack.
	var stack [8]colWriter
	cols := stack[:0]
	for j := 0; j < res.Batch.NumCols(); j++ {
		cols = append(cols, newColWriter(res.Batch.ColAt(j)))
	}
	n := res.Batch.NumRows()
	b = append(b, `],"rows":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := range cols {
			if j > 0 {
				b = append(b, ',')
			}
			b = cols[j].append(b, i)
		}
		b = append(b, ']')
		if w != nil && len(b) >= flushAt {
			streamed = true
			if _, err := w.Write(b); err != nil {
				return b[:0], true
			}
			b = b[:0]
		}
	}
	b = append(b, `],"row_count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, res.Elapsed.Nanoseconds(), 10)
	if trace && res.Trace.Spans != nil {
		spans, _ := json.Marshal(res.Trace.Spans) // plain data: cannot fail
		b = append(b, `,"trace":`...)
		b = append(b, spans...)
	}
	return append(b, "}\n"...), streamed
}

// colWriter appends the values of one result column, read from its vectors
// or, for a column in run form, from the vectors of its runs (one value per
// run), so the run form is never expanded.
type colWriter struct {
	typ     column.Type
	ints    []int64
	fls     []float64
	strs    []string
	nulls   []bool
	ends    []int32  // run form: cumulative row ends of the runs; nil when flat
	run     int      // run form: the run holding the last row written
	day     int64    // Timestamp: the last day written,
	date    [16]byte // and its "2006-01-02T" prefix
	dateLen int
}

func newColWriter(c *column.Column) colWriter {
	w := colWriter{typ: c.Type(), day: math.MinInt64}
	if vals, ends, ok := c.Runs(); ok {
		c, w.ends = vals, ends
	}
	w.ints, w.fls, w.strs, w.nulls = c.Int64s(), c.Float64s(), c.Strings(), c.Nulls()
	return w
}

// append appends the value of row i; rows are asked for in ascending order.
func (w *colWriter) append(b []byte, i int) []byte {
	if w.ends != nil {
		for i >= int(w.ends[w.run]) {
			w.run++
		}
		i = w.run
	}
	if w.nulls != nil && w.nulls[i] {
		return append(b, "null"...)
	}
	switch w.typ {
	case column.Float64:
		return appendFloat(b, w.fls[i])
	case column.String:
		return appendString(b, w.strs[i])
	case column.Timestamp:
		return w.appendTimestamp(b, w.ints[i])
	case column.Bool:
		return strconv.AppendBool(b, w.ints[i] != 0)
	default:
		return strconv.AppendInt(b, w.ints[i], 10)
	}
}

// appendFloat appends f as encoding/json does ('f', or 'e' outside [1e-6,
// 1e21) with e-07 written e-7), NaN and ±Inf as "NaN", "+Inf", "-Inf". An
// integer below 2⁵³ (a seismic count) prints the same digits through
// AppendInt; -0 does not take that path.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if i := int64(f); abs < 1<<53 && float64(i) == f && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(strconv.AppendFloat(append(b, '"'), f, 'g', -1, 64), '"')
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}

// appendTimestamp appends ns as the string "2006-01-02T15:04:05.000" (UTC,
// milliseconds truncated toward the past): the date is rendered once per
// day, the time of day by integer arithmetic.
func (w *colWriter) appendTimestamp(b []byte, ns int64) []byte {
	const nsPerDay = 24 * int64(time.Hour)
	day, rem := ns/nsPerDay, ns%nsPerDay
	if rem < 0 {
		day, rem = day-1, rem+nsPerDay
	}
	if day != w.day {
		w.day = day
		date := time.Unix(day*(nsPerDay/int64(time.Second)), 0).UTC().AppendFormat(w.date[:0], "2006-01-02T")
		w.dateLen = copy(w.date[:], date) // int64 nanoseconds span years 1677–2262: 11 bytes
	}
	ms := rem / int64(time.Millisecond)
	h, m, s, ms := ms/3_600_000, ms/60_000%60, ms/1000%60, ms%1000
	b = append(append(b, '"'), w.date[:w.dateLen]...)
	return append(b, byte('0'+h/10), byte('0'+h%10), ':', byte('0'+m/10), byte('0'+m%10), ':',
		byte('0'+s/10), byte('0'+s%10), '.', byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10), '"')
}

// appendString appends s escaped as encoding/json escapes it (HTML escaping
// on, json.Encoder's default): `"`, `\`, control bytes, <, >, &, U+2028 and
// U+2029 are escaped, each byte of invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || size > 1) && r != '\u2028' && r != '\u2029' {
				i += size // a valid rune other than U+2028/U+2029: copied
				continue
			}
		}
		b = append(b, s[start:i]...)
		switch k := strings.IndexByte("\b\f\n\r\t", c); {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case k >= 0:
			b = append(b, '\\', "bfnrt"[k])
		case r == utf8.RuneError:
			b = append(b, `\ufffd`...)
		default: // control bytes, <, >, &, U+2028, U+2029
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

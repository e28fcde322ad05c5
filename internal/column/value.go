// Package column implements the columnar storage layer of the warehouse:
// typed value vectors, columns, and batches (collections of equal-length
// columns), in the spirit of MonetDB's BATs. Operators in internal/exec
// work column-at-a-time over these structures.
//
// A column has two forms. The flat form holds one value per row. The
// constant-run form, which Column.Repeat returns, holds one value per run
// plus the cumulative row ends of the runs — the universal table's metadata
// columns, constant across each record's samples, are built that way in
// O(records) instead of O(samples). Len, Value, IsNull, Range, Slice,
// WithName and Bytes answer from the runs; Runs hands the form to an
// operator that can work once per run (the grouped aggregate); and every
// raw-vector reader — Int64s, Float64s, Strings, Nulls, Gather,
// AppendColumn — sees the expansion, built at most once per column behind a
// sync.Once, so no reader has to know which form it was handed. A column in
// run form is read-only.
package column

import (
	"fmt"
	"strconv"
	"time"
)

// Type enumerates the storage types of the engine.
type Type uint8

const (
	// Int64 is a 64-bit signed integer.
	Int64 Type = iota
	// Float64 is a double-precision float.
	Float64
	// String is a UTF-8 string.
	String
	// Bool is a boolean.
	Bool
	// Timestamp is an instant stored as int64 nanoseconds since the Unix
	// epoch (UTC).
	Timestamp
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool {
	return t == Int64 || t == Float64 || t == Timestamp
}

// IntFamily reports whether values of the type are stored as int64 (Int64,
// Timestamp and Bool columns share the Int64s vector).
func (t Type) IntFamily() bool {
	return t == Int64 || t == Timestamp || t == Bool
}

// Value is one typed scalar, used at the boundaries of the engine (literals
// in query plans, result rows). Hot paths operate on column vectors, not
// Values.
type Value struct {
	Type Type
	Null bool
	I    int64   // Int64, Timestamp, Bool (0/1)
	F    float64 // Float64
	S    string  // String
}

// NewInt64 returns an Int64 value.
func NewInt64(v int64) Value { return Value{Type: Int64, I: v} }

// NewFloat64 returns a Float64 value.
func NewFloat64(v float64) Value { return Value{Type: Float64, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Type: String, S: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Type: Bool, I: i}
}

// NewTimestamp returns a Timestamp value from nanoseconds since the epoch.
func NewTimestamp(ns int64) Value { return Value{Type: Timestamp, I: ns} }

// NewNull returns a null of the given type.
func NewNull(t Type) Value { return Value{Type: t, Null: true} }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	if v.Type == Float64 {
		return v.F
	}
	return float64(v.I)
}

// AsInt converts numeric values to int64, truncating floats.
func (v Value) AsInt() int64 {
	if v.Type == Float64 {
		return int64(v.F)
	}
	return v.I
}

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Timestamp:
		return time.Unix(0, v.I).UTC().Format("2006-01-02T15:04:05.000")
	default:
		return fmt.Sprintf("?%d", v.Type)
	}
}

// Compare orders two values. Numeric types (including Timestamp) compare by
// value with int/float coercion; strings lexicographically; booleans false
// before true. Nulls sort before everything. Comparing a string against a
// numeric type is an error.
func Compare(a, b Value) (int, error) {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0, nil
		case a.Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Type.Numeric() && b.Type.Numeric() {
		if a.Type == Float64 || b.Type == Float64 {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Type == String && b.Type == String {
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Type == Bool && b.Type == Bool {
		return int(a.I - b.I), nil
	}
	return 0, fmt.Errorf("column: cannot compare %v with %v", a.Type, b.Type)
}

// ParseTimestamp parses the timestamp literal formats accepted in queries:
// RFC3339-like with optional fractional seconds and optional date-only
// form, always interpreted as UTC.
func ParseTimestamp(s string) (int64, error) {
	// Only the layouts whose date/time separator (or end) sits where the
	// literal has it can match: every field before it is fixed-width.
	var layouts []string
	switch {
	case len(s) == 10:
		layouts = dateLayouts
	case len(s) > 10 && s[10] == 'T':
		layouts = tLayouts
	case len(s) > 10 && s[10] == ' ':
		layouts = spaceLayouts
	}
	for _, l := range layouts {
		if t, err := time.ParseInLocation(l, s, time.UTC); err == nil {
			return t.UnixNano(), nil
		}
	}
	return 0, fmt.Errorf("column: cannot parse timestamp literal %q", s)
}

var (
	tLayouts     = []string{"2006-01-02T15:04:05.999999999", "2006-01-02T15:04:05"}
	spaceLayouts = []string{"2006-01-02 15:04:05.999999999", "2006-01-02 15:04:05"}
	dateLayouts  = []string{"2006-01-02"}
)

package obs

import "strconv"

// Prometheus text exposition format appenders. Every helper appends to
// the caller's byte slice and returns it, strconv-style: the /metrics
// scrape path reuses one buffer and performs zero allocations once the
// buffer has grown to its steady-state capacity.
//
// labels is either "" or a comma-separated list of label pairs without
// braces (`class="cold"`); the helpers add the braces.

// AppendHeader appends the # HELP and # TYPE lines of a metric family.
func AppendHeader(b []byte, name, typ, help string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

func appendSeries(b []byte, name, labels string) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	return b
}

// AppendInt appends one integer-valued sample line.
func AppendInt(b []byte, name, labels string, v int64) []byte {
	b = appendSeries(b, name, labels)
	b = strconv.AppendInt(b, v, 10)
	b = append(b, '\n')
	return b
}

// AppendFloat appends one float-valued sample line.
func AppendFloat(b []byte, name, labels string, v float64) []byte {
	b = appendSeries(b, name, labels)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	b = append(b, '\n')
	return b
}

// AppendHistogram appends a histogram snapshot in cumulative-bucket form:
// name_bucket{labels,le="..."} lines with seconds-valued bounds, then
// name_sum (seconds) and name_count. The caller appends the family header
// once (type "histogram") before the per-label-set calls.
func AppendHistogram(b []byte, name, labels string, s HistSnapshot) []byte {
	var cum int64
	for i := 0; i < NumHistBuckets; i++ {
		cum += s.Counts[i]
		b = append(b, name...)
		b = append(b, "_bucket{"...)
		if labels != "" {
			b = append(b, labels...)
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		if bound := BucketBound(i); bound < 0 {
			b = append(b, "+Inf"...)
		} else {
			b = strconv.AppendFloat(b, float64(bound)/1e9, 'g', -1, 64)
		}
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, "_sum"...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, float64(s.Sum)/1e9, 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count"...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, cum, 10)
	b = append(b, '\n')
	return b
}

// AppendCounter appends a whole unlabelled counter family — header and
// integer sample — so the name is stated once and a header/sample mismatch
// cannot be written.
func AppendCounter(b []byte, name, help string, v int64) []byte {
	return AppendInt(AppendHeader(b, name, "counter", help), name, "", v)
}

// AppendGauge is AppendCounter for a gauge.
func AppendGauge(b []byte, name, help string, v int64) []byte {
	return AppendInt(AppendHeader(b, name, "gauge", help), name, "", v)
}

// AppendSecondsCounter is AppendCounter for accumulated time, counted in
// nanoseconds and exposed in seconds.
func AppendSecondsCounter(b []byte, name, help string, nanos int64) []byte {
	return AppendFloat(AppendHeader(b, name, "counter", help), name, "", float64(nanos)/1e9)
}

package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, NumHistBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		s := h.Snapshot()
		got := -1
		for i, n := range s.Counts {
			if n > 0 {
				got = i
			}
		}
		if got != c.bucket {
			t.Errorf("Observe(%v): bucket %d, want %d", c.d, got, c.bucket)
		}
		if ub := BucketBound(c.bucket); ub >= 0 && c.d.Nanoseconds() > ub {
			t.Errorf("Observe(%v): exceeds its bucket bound %d", c.d, ub)
		}
		if c.bucket > 0 {
			if lb := BucketBound(c.bucket - 1); c.d.Nanoseconds() <= lb {
				t.Errorf("Observe(%v): fits the previous bucket (bound %d)", c.d, lb)
			}
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	if want := int64(goroutines*per*(goroutines*per-1)/2) * 1000; s.Sum != want {
		t.Fatalf("Sum = %d ns, want %d", s.Sum, want)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != Count %d", sum, s.Count)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewRoot("query")
	a := root.StartChild("parse")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("stage:filter")
	b.Add(3 * time.Millisecond)
	b.Add(2 * time.Millisecond)
	b.AddRows(40)
	b.AddBytes(512)
	root.End()

	n := root.Snapshot()
	if n.Name != "query" || len(n.Children) != 2 {
		t.Fatalf("bad snapshot: %+v", n)
	}
	if n.Children[0].Nanos <= 0 {
		t.Fatalf("parse span has no time: %+v", n.Children[0])
	}
	if got := n.Children[1]; got.Nanos != (5*time.Millisecond).Nanoseconds() || got.Rows != 40 || got.Bytes != 512 {
		t.Fatalf("accumulated span wrong: %+v", got)
	}

	out := Render(n)
	for _, want := range []string{"query", "parse", "stage:filter", "100.0%", "rows=40", "bytes=512"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}

	// The JSON schema: name/nanos always, rows/bytes/children omitted
	// when empty.
	js, err := json.Marshal(n.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "rows") || strings.Contains(string(js), "children") {
		t.Fatalf("empty fields not omitted: %s", js)
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("nil StartChild must return nil")
	}
	c.End()
	c.Add(time.Second)
	c.AddRows(1)
	c.AddBytes(1)
	if c.Snapshot() != nil {
		t.Fatal("nil Snapshot must return nil")
	}
	if Render(nil) != "" {
		t.Fatal("Render(nil) must be empty")
	}
}

func TestSpanNodeContainerDuration(t *testing.T) {
	root := NewRoot("query")
	c := root.Child("extract-stream") // never End'ed: pure container
	c.Child("read").Add(2 * time.Millisecond)
	c.Child("decode").Add(3 * time.Millisecond)
	root.End()
	n := root.Snapshot()
	if got := n.Children[0].Duration(); got != 5*time.Millisecond {
		t.Fatalf("container duration = %v, want 5ms (sum of children)", got)
	}
}

// TestPromGolden pins the exact Prometheus text exposition rendering of a
// deterministically populated metric set.
func TestPromGolden(t *testing.T) {
	var m Metrics
	m.ObserveQuery(ClassCold, 5*time.Millisecond)
	m.ObserveQuery(ClassCold, 80*time.Millisecond)
	m.ObserveQuery(ClassCached, 20*time.Microsecond)
	m.ObserveQuery(ClassPrepared, 900*time.Microsecond)
	m.ObserveQuery(ClassRefresh, 2*time.Second)
	m.Errors.Add(3)
	m.Slow.Add(1)

	var b []byte
	b = AppendHeader(b, "lazyetl_query_duration_seconds", "histogram", "Query wall time by class.")
	for c := QueryClass(0); c < NumClasses; c++ {
		b = AppendHistogram(b, "lazyetl_query_duration_seconds", c.Label(), m.Query[c].Snapshot())
	}
	b = AppendCounter(b, "lazyetl_query_errors_total", "Queries that returned an error.", m.Errors.Load())
	b = AppendCounter(b, "lazyetl_slow_queries_total", "Queries at or over the slow-query threshold.", m.Slow.Load())
	b = AppendHeader(b, "lazyetl_mem_used_bytes", "gauge", "Execution-memory ledger bytes in use.")
	b = AppendFloat(b, "lazyetl_mem_used_bytes", "", 1.5e6)

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("prometheus rendering drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
	validatePromText(t, b)
}

// validatePromText asserts every line is well-formed Prometheus text
// exposition: a # HELP/# TYPE comment or `name{labels} value`.
func validatePromText(t *testing.T, b []byte) {
	t.Helper()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9.e+-]+)$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	seenType := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !comment.MatchString(line) {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			if strings.HasPrefix(line, "# TYPE ") {
				seenType[strings.Fields(line)[2]] = true
			}
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		name := line
		if j := strings.IndexAny(name, "{ "); j >= 0 {
			name = name[:j]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !seenType[name] && !seenType[base] {
			t.Fatalf("line %d: sample %q lacks a preceding # TYPE", i+1, line)
		}
	}
}

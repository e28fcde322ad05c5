package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

// queryResponse is the reference shape of a /query and /execute answer:
// what the daemon encoded through encoding/json before appendResult. Trace
// is present only when the request asked for ?trace=1.
type queryResponse struct {
	Columns   []string      `json:"columns"`
	Rows      [][]any       `json:"rows"`
	RowCount  int           `json:"row_count"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Trace     *obs.SpanNode `json:"trace,omitempty"`
}

// marshalResult boxes a result into the reference response shape.
func marshalResult(res *warehouse.Result, trace bool) queryResponse {
	out := queryResponse{
		Columns:   res.Columns,
		Rows:      make([][]any, res.Batch.NumRows()),
		RowCount:  res.Batch.NumRows(),
		ElapsedNS: res.Elapsed.Nanoseconds(),
	}
	if trace {
		out.Trace = res.Trace.Spans
	}
	for i := range out.Rows {
		vals := res.Batch.Row(i)
		row := make([]any, len(vals))
		for j, v := range vals {
			row[j] = jsonValue(v)
		}
		out.Rows[i] = row
	}
	return out
}

// jsonValue converts one column.Value to a JSON-encodable scalar. Nulls map
// to null, timestamps to their display format, and non-finite floats (which
// encoding/json rejects) to their string rendering.
func jsonValue(v column.Value) any {
	if v.Null {
		return nil
	}
	switch v.Type {
	case column.Int64:
		return v.I
	case column.Float64:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return v.String()
		}
		return v.F
	case column.Bool:
		return v.I != 0
	default: // String, Timestamp
		return v.String()
	}
}

// jsonLine is what writeJSON writes for v.
func jsonLine(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// referenceAnswer is the answer body appendResult must reproduce byte for
// byte.
func referenceAnswer(res *warehouse.Result, trace bool) []byte {
	return jsonLine(marshalResult(res, trace))
}

// fuzzInput draws a fuzz case's values from its bytes, zeros once they run
// out.
type fuzzInput struct{ data []byte }

func (in *fuzzInput) take(n int) []byte {
	out := make([]byte, n)
	in.data = in.data[copy(out, in.data):]
	return out
}

func (in *fuzzInput) byte() byte            { return in.take(1)[0] }
func (in *fuzzInput) int64() int64          { return int64(binary.LittleEndian.Uint64(in.take(8))) }
func (in *fuzzInput) str(limit byte) string { return string(in.take(int(in.byte() % limit))) }

// column reads n values of typ: per value a null byte (low bit set = null)
// when nullable, then 8 bytes for a number, 1 for a bool, a length byte and
// that many bytes for a string.
func (in *fuzzInput) column(name string, typ column.Type, nullable bool, n int) *column.Column {
	c := column.New(name, typ)
	for i := 0; i < n; i++ {
		if nullable && in.byte()&1 == 1 {
			c.AppendNull()
			continue
		}
		switch typ {
		case column.Float64:
			c.AppendFloat64(math.Float64frombits(uint64(in.int64())))
		case column.String:
			c.AppendString(in.str(32))
		case column.Bool:
			c.AppendInt64(int64(in.byte() & 1))
		default:
			c.AppendInt64(in.int64())
		}
	}
	return c
}

// fuzzResult builds a result from fuzz bytes. Byte 0 is the column count
// (mod 7), byte 1 the row count (mod 64). Each column then reads a spec byte
// — type = b&7%5 in column.Type order, nullable = b&8, run form = b&16 — a
// name suffix (a length byte mod 8 and its bytes) and its values: a flat
// column its rows', a run-form column first its run lengths (a byte each,
// 1 + b%4 rows, until every row is covered) and then one value per run.
// Last come elapsed_ns (8 bytes) and a two-span trace: a name and 8 bytes
// of nanos each.
func fuzzResult(data []byte) *warehouse.Result {
	in := &fuzzInput{data}
	ncols, nrows := int(in.byte()%7), int(in.byte()%64)
	batch := column.MustNewBatch()
	for j := 0; j < ncols; j++ {
		spec := in.byte()
		typ, nullable := column.Type(spec&7%5), spec&8 != 0
		name := fmt.Sprint(j) + in.str(8)
		var c *column.Column
		if spec&16 == 0 {
			c = in.column(name, typ, nullable, nrows)
		} else {
			var rows []int32
			var counts []int
			for left := nrows; left > 0; left -= counts[len(counts)-1] {
				rows = append(rows, int32(len(rows)))
				counts = append(counts, min(left, 1+int(in.byte()%4)))
			}
			c = in.column(name, typ, nullable, len(rows)).Repeat(rows, counts)
		}
		if err := batch.AddColumn(c); err != nil {
			panic(err)
		}
	}
	res := &warehouse.Result{Columns: batch.Names(), Batch: batch, Elapsed: time.Duration(in.int64())}
	res.Trace.Spans = &obs.SpanNode{Name: in.str(32), Nanos: in.int64()}
	res.Trace.Spans.Children = []*obs.SpanNode{{Name: in.str(32), Nanos: in.int64(), Rows: int64(nrows)}}
	return res
}

// FuzzAppendResult holds appendResult to the encoding/json reference, byte
// for byte, with and without a trace, on every column type, nullable or
// not, flat or in run form. The seed corpus in testdata covers the float
// formatting boundaries, extreme and negative timestamps, strings that need
// escaping, and empty answers.
func FuzzAppendResult(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fuzzResult(data)
		for _, trace := range []bool{false, true} {
			want := referenceAnswer(res, trace)
			got, streamed := appendResult([]byte("stale"), res, trace, nil)
			if streamed || !bytes.Equal(got[len("stale"):], want) {
				t.Fatalf("trace=%v:\nappendResult %s\nreference    %s", trace, got, want)
			}
		}
	})
}

// fetchResult is the shape of warm_serve's fetch answer: rows 40 Hz samples
// of one series, (TIMESTAMP, DOUBLE) with integer sample counts.
func fetchResult(rows int) *warehouse.Result {
	times, vals := make([]int64, rows), make([]float64, rows)
	t0 := time.Date(2010, 1, 12, 23, 59, 0, 0, time.UTC).UnixNano()
	for i := range times {
		times[i] = t0 + int64(i)*int64(25*time.Millisecond)
		vals[i] = float64((i*7919)%40000 - 20000)
	}
	batch := column.MustNewBatch(column.NewTimestamps("sample_time", times), column.NewFloat64s("sample_value", vals))
	return &warehouse.Result{Columns: batch.Names(), Batch: batch, Elapsed: 312 * time.Microsecond}
}

// pointResult is the shape of warm_serve's prepared point lookup: one row.
func pointResult() *warehouse.Result {
	batch := column.MustNewBatch(
		column.NewStrings("uri", []string{"NL/HGN/BHZ/2010.012.mseed"}),
		column.NewInt64s("seqno", []int64{17}),
		column.NewTimestamps("start_time", []int64{time.Date(2010, 1, 12, 0, 1, 42, 500e6, time.UTC).UnixNano()}),
		column.NewInt64s("num_samples", []int64{4032}),
	)
	return &warehouse.Result{Columns: batch.Names(), Batch: batch, Elapsed: 95 * time.Microsecond}
}

// TestAppendResultAllocs: a steady-state encode of a fetch-sized answer
// into a warm buffer allocates nothing.
func TestAppendResultAllocs(t *testing.T) {
	for _, res := range []*warehouse.Result{fetchResult(4000), pointResult()} {
		b, _ := appendResult(nil, res, false, nil)
		if !bytes.Equal(b, referenceAnswer(res, false)) {
			t.Fatalf("appendResult diverged from the reference:\n%s", b)
		}
		if allocs := testing.AllocsPerRun(20, func() { b, _ = appendResult(b[:0], res, false, nil) }); allocs != 0 {
			t.Errorf("%d rows: %.1f allocations per encode into a warm buffer, want 0", res.Batch.NumRows(), allocs)
		}
	}
}

// BenchmarkEncodeResult compares the encoding/json reference with
// appendResult on warm_serve's fetch and point answer shapes.
func BenchmarkEncodeResult(b *testing.B) {
	for _, c := range []struct {
		name string
		res  *warehouse.Result
	}{{"fetch", fetchResult(4000)}, {"point", pointResult()}} {
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_ = json.NewEncoder(io.Discard).Encode(marshalResult(c.res, false))
			}
		})
		b.Run(c.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				buf, _ = appendResult(buf[:0], c.res, false, nil)
			}
		})
	}
}

func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestAnswerFraming checks the HTTP framing of /query and /execute answers:
// a small one carries a Content-Length, one past flushAt arrives chunked,
// both equal the reference encoding of the same result, a ?trace=1 body
// adds the span tree, and error answers keep their status and body.
func TestAnswerFraming(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	prepare := func(sql string) (string, *warehouse.Prepared) {
		t.Helper()
		ps, err := w.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(request{SQL: sql})
		_, raw := postRaw(t, ts, "/prepare", string(body))
		var prep prepareResponse
		if err := json.Unmarshal(raw, &prep); err != nil || prep.ID == "" {
			t.Fatalf("prepare: %s (%v)", raw, err)
		}
		return prep.ID, ps
	}
	// Every sample of the repository, ~1 MB of answer, and one row per
	// station.
	const samples = "SELECT D.sample_time, D.sample_value, F.station FROM mseed.dataview"
	const stations = "SELECT station, COUNT(*) AS n FROM mseed.files GROUP BY station ORDER BY station"
	samplesID, samplesPS := prepare(samples + " WHERE D.sample_value > ?")
	stationsID, stationsPS := prepare("SELECT station, COUNT(*) AS n FROM mseed.files WHERE channel = ? GROUP BY station ORDER BY station")

	for _, c := range []struct {
		path, body string
		ref        func() (*warehouse.Result, error)
		chunked    bool
	}{
		{"/query", `{"sql":"` + stations + `"}`, func() (*warehouse.Result, error) { return w.Query(stations) }, false},
		{"/execute", `{"id":"` + stationsID + `","params":["BHZ"]}`,
			func() (*warehouse.Result, error) { return stationsPS.Execute(column.NewString("BHZ")) }, false},
		{"/query", `{"sql":"` + samples + `"}`, func() (*warehouse.Result, error) { return w.Query(samples) }, true},
		{"/execute", `{"id":"` + samplesID + `","params":[-1000000]}`,
			func() (*warehouse.Result, error) { return samplesPS.Execute(column.NewInt64(-1000000)) }, true},
	} {
		res, err := c.ref()
		if err != nil {
			t.Fatal(err)
		}
		// The reference for the body: the same answer with the elapsed_ns
		// the server reported.
		reference := func(body []byte) []byte {
			var doc struct {
				ElapsedNS int64 `json:"elapsed_ns"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("%s %s: %v", c.path, c.body, err)
			}
			same := *res
			same.Elapsed = time.Duration(doc.ElapsedNS)
			return referenceAnswer(&same, false)
		}

		resp, body := postRaw(t, ts, c.path, c.body)
		want := reference(body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s %s: status %d, body differs from the reference (%d vs %d bytes)", c.path, c.body, resp.StatusCode, len(body), len(want))
		}
		if chunked := len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"; chunked != c.chunked ||
			chunked != (resp.ContentLength == -1) || chunked != (len(body) > flushAt) {
			t.Errorf("%s %s: %d-byte answer framed with Transfer-Encoding %v, Content-Length %d; want chunked=%v",
				c.path, c.body, len(body), resp.TransferEncoding, resp.ContentLength, c.chunked)
		} else if !chunked && resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", c.path, resp.ContentLength, len(body))
		}

		// ?trace=1: the same document with the span tree as its last field.
		resp, body = postRaw(t, ts, c.path+"?trace=1", c.body)
		want = reference(body)
		head := want[:len(want)-len("}\n")]
		var doc struct {
			Trace *obs.SpanNode `json:"trace"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK ||
			!bytes.HasPrefix(body, append(head, `,"trace":{"name":"query"`...)) || !bytes.HasSuffix(body, []byte("}\n")) ||
			doc.Trace == nil || len(doc.Trace.Children) == 0 {
			t.Fatalf("%s?trace=1 %s: status %d, %d-byte body is not the answer plus a span tree (%v)", c.path, c.body, resp.StatusCode, len(body), err)
		}
	}

	_, queryErr := w.Query("SELEC nonsense")
	for _, c := range []struct {
		path, body string
		code       int
		msg        string
	}{
		{"/query", `{"sql":""}`, http.StatusBadRequest, `bad request: missing "sql" field`},
		{"/query", `{"sql":`, http.StatusBadRequest, "bad request: unexpected EOF"},
		{"/execute", `{"id":"p999","params":[]}`, http.StatusNotFound, `no prepared statement "p999"`},
		{"/execute", `{"id":"` + stationsID + `","params":[{}]}`, http.StatusBadRequest, "param 0: unsupported parameter type map[string]interface {}"},
		{"/query", `{"sql":"SELEC nonsense"}`, http.StatusUnprocessableEntity, queryErr.Error()},
	} {
		resp, body := postRaw(t, ts, c.path, c.body)
		if want := jsonLine(errorResponse{c.msg}); resp.StatusCode != c.code || !bytes.Equal(body, want) {
			t.Errorf("%s %s: %d %q, want %d %q", c.path, c.body, resp.StatusCode, body, c.code, want)
		}
	}
	srv.clients = newClientLimiter(1)
	srv.clients.acquire("127.0.0.1")
	resp, body := postRaw(t, ts, "/query", `{"sql":"SELECT COUNT(*) FROM mseed.files"}`)
	if want := jsonLine(errorResponse{"client 127.0.0.1 exceeds its in-flight query limit"}); resp.StatusCode != http.StatusTooManyRequests || !bytes.Equal(body, want) {
		t.Errorf("over the per-client limit: %d %q, want 429 %q", resp.StatusCode, body, want)
	}
}

// TestRequestTrailingData: a POST body is one JSON object; anything but
// whitespace after it is a 400, and the statement is not run.
func TestRequestTrailingData(t *testing.T) {
	srv, w := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const obj = `{"sql":"SELECT COUNT(*) FROM mseed.files"}`
	for _, tail := range []string{`{"sql":"SELECT COUNT(*) FROM mseed.records"}`, " junk", "}", `"x"`, "\n0"} {
		resp, body := postRaw(t, ts, "/query", obj+tail)
		want := jsonLine(errorResponse{"bad request: trailing data after the JSON object"})
		if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(body, want) {
			t.Errorf("body with trailing %q: %d %s, want 400 %s", tail, resp.StatusCode, body, want)
		}
	}
	if resp, body := postRaw(t, ts, "/prepare", `{"sql":"SELECT COUNT(*) FROM mseed.files WHERE station = ?"} []`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/prepare with trailing data: %d %s, want 400", resp.StatusCode, body)
	}
	if n := w.Stats().Queries; n != 0 {
		t.Fatalf("%d queries ran for rejected requests", n)
	}
	if resp, body := postRaw(t, ts, "/query", obj+" \n\t\r\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: %d %s, want 200", resp.StatusCode, body)
	}
}

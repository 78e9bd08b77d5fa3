package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/history"
)

// The envelope half of the codec's contract (internal/history's
// codec_test.go holds the record half): MarshalCanonical's direct paths
// write what encoding/json writes, the strict decoder behind
// UnmarshalCanonical reads what encoding/json reads, and nothing this
// tree produces falls to the slow path unnoticed.

// codecCorpus is one undirected diagnosis of every buildable
// app/version — the records the benchmark's corpus and
// harness.TestRecordBytesPinned are made of — run once a test binary.
var codecCorpus = sync.OnceValues(func() ([]*history.RunRecord, error) {
	var recs []*history.RunRecord
	for _, av := range [][2]string{
		{"poisson", "A"}, {"poisson", "B"}, {"poisson", "C"}, {"poisson", "D"},
		{"ocean", ""}, {"tester", ""}, {"seismic", ""}, {"mw", ""}, {"pipeline", ""},
	} {
		a, err := app.Build(av[0], av[1], app.Options{})
		if err != nil {
			return nil, err
		}
		cfg := harness.DefaultSessionConfig()
		cfg.RunID = "base"
		res, err := harness.RunSession(a, cfg)
		if err != nil {
			return nil, err
		}
		recs = append(recs, res.Record)
	}
	return recs, nil
})

func corpusRecords(t testing.TB) []*history.RunRecord {
	t.Helper()
	recs, err := codecCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// corpusQuery is every concluded result of the four poisson versions, a
// second run of each included: a few thousand hits across versions and
// runs, with tied values.
func corpusQuery(t testing.TB) *QueryResponse {
	t.Helper()
	st := history.NewMemStore()
	for _, rec := range corpusRecords(t) {
		again := *rec
		again.RunID = "again"
		for _, r := range []*history.RunRecord{rec, &again} {
			if err := st.Save(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, err := st.Query("poisson", "", history.ResultFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) < 1000 {
		t.Fatalf("corpus query has %d hits, want a body of real size", len(hits))
	}
	return &QueryResponse{App: "poisson", Hits: WireQueryHits(hits)}
}

// stdCanonical is the oracle: what MarshalCanonical was before the codec.
func stdCanonical(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func checkCanonical(t *testing.T, v any) {
	t.Helper()
	got, err := MarshalCanonical(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := stdCanonical(t, v); !bytes.Equal(got, want) {
		t.Fatalf("MarshalCanonical(%T) differs from json.MarshalIndent:\ngot  %.2000s\nwant %.2000s", v, got, want)
	}
}

var (
	wireStrings = []string{"", "a", "A:base", `q"\`, "\b\f\n\r\t", "\x00\x1f\x7f", "<&>", "\u2028\u2029", "é世😀", "\ufffd", "a\xffb"}
	wireFloats  = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1e22, 5e-324, math.MaxFloat64, 0.30000000000000004, 123456789.12345679}
)

// wireQuery draws a response from testing/quick and redraws half of its
// strings and floats from the escape classes and float-rule boundaries.
func wireQuery(r *rand.Rand) *QueryResponse {
	v, ok := quick.Value(reflect.TypeOf(QueryResponse{}), r)
	if !ok {
		panic("testing/quick cannot generate a QueryResponse")
	}
	q := v.Interface().(QueryResponse)
	str := func(s *string) {
		if r.Intn(2) == 0 {
			*s = wireStrings[r.Intn(len(wireStrings))] + wireStrings[r.Intn(len(wireStrings))]
		}
	}
	flt := func(f *float64) {
		if r.Intn(2) == 0 {
			*f = wireFloats[r.Intn(len(wireFloats))]
		}
	}
	str(&q.App)
	for i := range q.Hits {
		h := &q.Hits[i]
		str(&h.Version)
		str(&h.RunID)
		str(&h.Result.Hyp)
		str(&h.Result.Focus)
		str(&h.Result.State)
		str(&h.Result.Priority)
		flt(&h.Result.Value)
		flt(&h.Result.Threshold)
		flt(&h.Result.ConcludedAt)
	}
	switch r.Intn(8) {
	case 0:
		q.Hits = nil
	case 1:
		q.Hits = []QueryHit{}
	}
	return &q
}

func TestAppendQueryMatchesMarshalCanonical(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		q := corpusQuery(t)
		checkCanonical(t, q)
		checkCanonical(t, *q)
		for _, rec := range corpusRecords(t) {
			checkCanonical(t, rec)
		}
		recs := append([]*history.RunRecord{nil}, corpusRecords(t)[4:7]...)
		checkCanonical(t, PutRunsRequest{Runs: append(recs, nil)})
	})
	t.Run("edges", func(t *testing.T) {
		checkCanonical(t, &QueryResponse{})
		checkCanonical(t, QueryResponse{App: "a", Hits: []QueryHit{}})
		checkCanonical(t, (*QueryResponse)(nil))
		checkCanonical(t, (*history.RunRecord)(nil))
		checkCanonical(t, &history.RunRecord{})
		checkCanonical(t, PutRunsRequest{})
		checkCanonical(t, PutRunsRequest{Runs: []*history.RunRecord{}})
		checkCanonical(t, PutRunsRequest{Runs: []*history.RunRecord{nil}})
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		for i := 0; i < 1000; i++ {
			checkCanonical(t, wireQuery(r))
		}
	})
	// A float JSON cannot spell is encoding/json's to refuse: the same
	// error the reflective path has always returned, 500 on the wire.
	t.Run("non-finite", func(t *testing.T) {
		nan := history.NodeResult{Value: math.NaN()}
		for _, v := range []any{
			&history.RunRecord{Duration: math.Inf(1)},
			&history.RunRecord{Usage: map[string]float64{"/Code": math.NaN()}},
			QueryResponse{Hits: []QueryHit{{Result: nan}}},
			&QueryResponse{Hits: []QueryHit{{}, {Result: history.NodeResult{ConcludedAt: math.Inf(-1)}}}},
			PutRunsRequest{Runs: []*history.RunRecord{{Results: []history.NodeResult{nan}}}},
		} {
			_, err := MarshalCanonical(v)
			_, want := json.MarshalIndent(v, "", "  ")
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("MarshalCanonical(%T) = %v, want encoding/json's %v", v, err, want)
			}
		}
	})
}

// checkStrict decodes data into a zero value of out's type both ways and
// requires the strict decoder to have read it, and read it as
// encoding/json does.
func checkStrict[T any](t *testing.T, what string, data []byte) {
	t.Helper()
	var got, want T
	if !unmarshalStrict(data, &got) {
		t.Errorf("%s: the strict decoder bailed on %d bytes this tree encoded", what, len(data))
		return
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: strict decode differs from json.Unmarshal", what)
	}
}

// checkPutBatch decodes a batch body as the server does and as
// encoding/json's stream decoder does, and requires the same records, or
// the same refusal.
func checkPutBatch(t testing.TB, what string, data []byte) {
	t.Helper()
	recs, err := history.DecodePutBatch(data)
	var want PutRunsRequest
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: DecodePutBatch = %v, encoding/json = %v", what, err, werr)
	}
	if err != nil {
		return
	}
	var got PutRunsRequest
	if recs != nil {
		got.Runs = make([]*history.RunRecord, len(recs))
		for i, e := range recs {
			got.Runs[i] = e.Record()
		}
	}
	a, errA := json.Marshal(got) // tells -0 from 0, which DeepEqual does not
	b, errB := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%s: DecodePutBatch differs from encoding/json:\ngot  %.2000s\nwant %.2000s", what, a, b)
	}
}

// TestCodecTakesFastPath: the canonical and the compact encoding of
// every corpus record and of a query response over them decode without
// bailing — so a change that sends real traffic down the encoding/json
// path is a red test, not a silently lost gain — and a batch decodes to
// encoding/json's records (internal/history's TestPutBodyTakesFastPath
// holds the batch to its fast paths).
func TestCodecTakesFastPath(t *testing.T) {
	both := func(v any) [][]byte {
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{stdCanonical(t, v), compact}
	}
	recs := corpusRecords(t)
	for _, rec := range recs {
		for i, data := range both(rec) {
			checkStrict[history.RunRecord](t, fmt.Sprintf("%s encoding %d", rec.Key(), i), data)
			if _, ok := history.ParseRecord(data); !ok {
				t.Errorf("%s encoding %d: ParseRecord bailed", rec.Key(), i)
			}
		}
	}
	for i, data := range both(corpusQuery(t)) {
		checkStrict[QueryResponse](t, fmt.Sprintf("query response encoding %d", i), data)
	}
	for i, data := range both(PutRunsRequest{Runs: recs[:3]}) {
		checkPutBatch(t, fmt.Sprintf("batch encoding %d", i), data)
	}
	// And the other direction: a bail leaves *out alone and says so.
	rec := history.RunRecord{App: "kept"}
	if unmarshalStrict([]byte(`{"app":"a","results":null}`), &rec) || rec.App != "kept" {
		t.Errorf("a bail returned true or wrote through: %+v", rec)
	}
	if unmarshalStrict([]byte(`{"status":"ok"}`), &HealthResponse{}) {
		t.Error("the strict decoder claimed a shape it does not know")
	}
}

// queryBailSeeds is one input per way a query response can make the
// strict decoder bail; the record-level conditions are seeded in
// internal/history's fuzzer and reached here through "result".
var queryBailSeeds = []string{
	`{"app":"a","hits":null}`,
	`{"app":"a","hits":[null]}`,
	`{"app":"a","hits":[],"more":1}`,
	`{"app":"a","Hits":[]}`,
	`{"app":"a","app":"b"}`,
	`{"hits":[{"version":"A","version":"B"}]}`,
	`{"hits":[{"result":{"hyp":"h","hyp":"g"}}]}`,
	`{"hits":[{"result":{"value":1e999}}]}`,
	`{"hits":[{"result":{"value":01}}]}`,
	`{"hits":[{"result":{"value":-}}]}`,
	`{"hits":[{"result":{"focus":"\ud800"}}]}`,
	`{"hits":[{"result":{"focus":"\q"}}]}`,
	"{\"hits\":[{\"run_id\":\"\xff\"}]}",
	`{"hits":[{"result":{"persistent":null}}]}`,
	`{"app":"a","hits":[]} {}`,
	`{"app":"a","hits":[],}`,
	`{"hits":[{"result":[]}]}`,
	strings.Repeat("[", 10000),
	`{"hits":` + strings.Repeat("[", 10000),
}

// FuzzDecodeQueryMatchesEncodingJSON: what the strict decoder reads out
// of a query body, encoding/json reads too, to the same value — so
// UnmarshalCanonical is json.Unmarshal on every input — and the server's
// read of a batch body is encoding/json's stream decoder's.
func FuzzDecodeQueryMatchesEncodingJSON(f *testing.F) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 8; i++ {
		q := wireQuery(r)
		if len(q.Hits) > 2 { // small enough for the mutator to get through
			q.Hits = q.Hits[:2]
		}
		for j := range q.Hits { // seeds the decoder reads: valid UTF-8
			h := &q.Hits[j]
			for _, s := range []*string{&q.App, &h.Version, &h.RunID, &h.Result.Hyp, &h.Result.Focus, &h.Result.State, &h.Result.Priority} {
				*s = strings.ToValidUTF8(*s, "?")
			}
		}
		f.Add(stdCanonical(f, q))
		compact, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
	}
	f.Add([]byte(`{"runs":[{"app":"a","run_id":"r","results":[{"state":"true"}],"true_count":1},{}]}`))
	f.Add([]byte(`{"runs":[null]}`))
	for _, in := range queryBailSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStrict[QueryResponse](t, data)
		checkPutBatch(t, "batch body", data)
	})
}

func fuzzStrict[T any](t *testing.T, data []byte) {
	var got, want T
	if !unmarshalStrict(data, &got) {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a bail wrote through: %+v", got)
		}
		return
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("the strict decoder read %+v out of what encoding/json refuses: %v", got, err)
	}
	a, errA := json.Marshal(got) // tells -0 from 0, which DeepEqual does not
	b, errB := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("strict decode differs from json.Unmarshal:\ngot  %s\nwant %s", a, b)
	}
}

func TestCodecBailsOnQuerySeeds(t *testing.T) {
	for _, in := range queryBailSeeds {
		var q QueryResponse
		if unmarshalStrict([]byte(in), &q) {
			t.Errorf("unmarshalStrict(%.60q) = %+v, want a bail", in, q)
		}
	}
}

// TestBodiesDeclareTheirLength: a get and a query body are far over the
// 2 KB below which net/http works Content-Length out by itself; they go
// out with it set, not chunked. And a put is decoded from a body read
// whole, whether its length was declared or not, first JSON value only
// as encoding/json's stream decoder has it.
func TestBodiesDeclareTheirLength(t *testing.T) {
	env := harness.NewEnv(nil)
	srv := New(env, Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rec := corpusRecords(t)[5]
	body := stdCanonical(t, rec)

	put := func(name string, rd func() *http.Request, want int) {
		t.Helper()
		resp, err := http.DefaultClient.Do(rd())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: PUT answered %d, want %d", name, resp.StatusCode, want)
		}
	}
	req := func(body []byte, declared bool) func() *http.Request {
		return func() *http.Request {
			var rd = struct{ *bytes.Reader }{bytes.NewReader(body)} // hides Len: net/http chunks it
			r, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/run", rd)
			if err != nil {
				t.Fatal(err)
			}
			if declared {
				r.ContentLength = int64(len(body))
			}
			return r
		}
	}
	put("declared length", req(body, true), http.StatusOK)
	put("chunked", req(body, false), http.StatusOK)
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	put("compact", req(compact.Bytes(), true), http.StatusOK)
	put("trailing value", req(append(append([]byte{}, body...), "{}"...), true), http.StatusOK)
	put("nothing", req(nil, true), http.StatusBadRequest)
	put("half a record", req(body[:len(body)/2], true), http.StatusBadRequest)
	put("null results", req([]byte(`{"app":"a","run_id":"r","results":null}`), true), http.StatusOK)

	for _, path := range []string{
		"/api/v1/run?app=" + url.QueryEscape(rec.App) + "&ref=:base",
		"/api/v1/query?app=" + url.QueryEscape(rec.App) + "&state=*",
		"/api/v1/run?app=nosuch&ref=:base", // the error body too
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(buf.Len()) || len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s: Content-Length %q, transfer encoding %v, body of %d bytes", path, got, resp.TransferEncoding, buf.Len())
		}
	}
}

// benchQuery is the body the read-mixed workload's widest query
// answers: 28 stored runs of poisson A, every true result of each —
// 2 688 hits, about 1 MB of canonical JSON.
func benchQuery(b *testing.B) *QueryResponse {
	b.Helper()
	base := corpusRecords(b)[0]
	st := history.NewMemStore()
	for i := 0; i < 28; i++ {
		rec := *base
		rec.RunID = fmt.Sprintf("r%02d", i)
		rec.Results = slices.Clone(base.Results)
		for j := range rec.Results {
			rec.Results[j].Value *= 1 + float64(i*7+j%5)/10000
		}
		if err := st.Save(&rec); err != nil {
			b.Fatal(err)
		}
	}
	hits, err := st.Query(base.App, base.Version, history.ResultFilter{State: "true"})
	if err != nil || len(hits) != 28*base.TrueCount {
		b.Fatalf("bench query: %d hits, %v", len(hits), err)
	}
	return &QueryResponse{App: base.App, Hits: WireQueryHits(hits)}
}

var benchSink any

// BenchmarkQueryResponseEncode prices a query body's encoding, the
// codec against the reflective path it replaced on the server.
func BenchmarkQueryResponseEncode(b *testing.B) {
	q := benchQuery(b)
	for name, encode := range map[string]func(any) ([]byte, error){
		"direct": MarshalCanonical,
		"stdlib": func(v any) ([]byte, error) { return stdCanonical(b, v), nil },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(stdCanonical(b, q))))
			for i := 0; i < b.N; i++ {
				data, err := encode(q)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = data
			}
		})
	}
}

// BenchmarkQueryResponseDecode prices the same body's decoding in the
// client.
func BenchmarkQueryResponseDecode(b *testing.B) {
	data := stdCanonical(b, benchQuery(b))
	for name, decode := range map[string]func([]byte, any) error{
		"direct": UnmarshalCanonical,
		"stdlib": json.Unmarshal,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				q := &QueryResponse{}
				if err := decode(data, q); err != nil || len(q.Hits) != 2688 {
					b.Fatal(len(q.Hits), err)
				}
				benchSink = q
			}
		})
	}
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/ingest"
)

// What a body answers on the three intake endpoints is what it answered
// when each handler ran encoding/json's stream decoder over r.Body: the
// same status, and the same message wherever the body arrived whole.

// viaEncodingJSON is an intake handler as it was before the codec and
// decodeBody: the request decoded from the body as it streams in, a
// failure answered on the spot — and then, so that the oracle is only
// about decoding, the handler under test run on the value re-encoded.
func viaEncodingJSON[T any](what string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, fmt.Errorf("decode ingest %s: %w", what, err), http.StatusBadRequest)
			return
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		next(w, r)
	}
}

// intakePair is the server under test and the oracle beside it, each
// over a store and an intake of its own.
func intakePair(t *testing.T) (cur, ref *httptest.Server) {
	t.Helper()
	cur = httptest.NewServer(New(harness.NewEnv(nil), Options{Sessions: 1}).Handler())
	t.Cleanup(cur.Close)
	s := New(harness.NewEnv(nil), Options{Sessions: 1})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/ingest/start", viaEncodingJSON[ingest.StartRequest]("start", s.handleIngestStart))
	mux.HandleFunc("POST /api/v1/ingest/samples", viaEncodingJSON[ingest.SamplesRequest]("samples", s.handleIngestSamples))
	mux.HandleFunc("POST /api/v1/ingest/end", viaEncodingJSON[ingest.EndRequest]("end", s.handleIngestEnd))
	ref = httptest.NewServer(mux)
	t.Cleanup(ref.Close)
	return cur, ref
}

// answer is what one request got: the status and, of the body, the
// error message or the fields that do not depend on how far the stream's
// worker has come.
type answer struct {
	status int
	body   string
}

func readAnswer(t *testing.T, resp *http.Response) answer {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var ok struct {
			Stream   *string `json:"stream"`
			Accepted *int    `json:"accepted"`
			Saved    *string `json:"saved"`
			Samples  *int    `json:"samples"`
		}
		if err := json.Unmarshal(data, &ok); err != nil {
			t.Fatal(err)
		}
		data, _ = json.Marshal(ok)
	}
	return answer{resp.StatusCode, string(data)}
}

// post sends body with its length declared.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) answer {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return readAnswer(t, resp)
}

// postChunked sends body with no declared length.
func postChunked(t *testing.T, ts *httptest.Server, path string, body []byte) answer {
	t.Helper()
	rd := struct{ io.Reader }{bytes.NewReader(body)} // hides Len: net/http chunks it
	resp, err := http.Post(ts.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	return readAnswer(t, resp)
}

// postShort declares len(body)+extra bytes, sends body and then closes
// its half of the connection.
func postShort(t *testing.T, ts *httptest.Server, path string, body []byte, extra int) answer {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, len(body)+extra, body)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return readAnswer(t, resp)
}

// TestIngestBodiesReadWhole: all three intake handlers read their body
// through decodeBody, and a body cut short of its declared length, one
// with bytes after the value and one sent chunked each answer what they
// answered the stream decoder.
func TestIngestBodiesReadWhole(t *testing.T) {
	cur, ref := intakePair(t)
	sample := `{"proc":"p:1","node":"n01","kind":"cpu","start":0,"end":1,"calls":1}`
	both := func(what string, send func(ts *httptest.Server) answer, status int) {
		t.Helper()
		got, want := send(cur), send(ref)
		if got != want || got.status != status {
			t.Errorf("%s: answered %d %s, the stream decoder %d %s, want status %d", what, got.status, got.body, want.status, want.body, status)
		}
	}
	steps := []struct{ path, body string }{
		{"/api/v1/ingest/start", `{"app":"t","run_id":"r%d"}`},
		{"/api/v1/ingest/samples", `{"app":"t","run_id":"r%d","seq":1,"samples":[` + sample + `]}`},
		{"/api/v1/ingest/end", `{"app":"t","run_id":"r%d","seq":2}`},
	}
	for i, ep := range steps {
		body := func(run int) []byte { return []byte(fmt.Sprintf(ep.body, run+3*i)) }
		// Three streams, one for each request below that is to succeed,
		// brought to just before this step.
		for run := 1; run <= 3; run++ {
			for _, prior := range steps[:i] {
				both("set-up", func(ts *httptest.Server) answer {
					return post(t, ts, prior.path, []byte(fmt.Sprintf(prior.body, run+3*i)))
				}, http.StatusOK)
			}
		}
		both(ep.path+" whole", func(ts *httptest.Server) answer { return post(t, ts, ep.path, body(1)) }, http.StatusOK)
		both(ep.path+" chunked", func(ts *httptest.Server) answer { return postChunked(t, ts, ep.path, body(2)) }, http.StatusOK)
		both(ep.path+" trailing bytes", func(ts *httptest.Server) answer {
			return post(t, ts, ep.path, append(body(3), ` {"app":"other"} x`...))
		}, http.StatusOK)
		both(ep.path+" trailing garbage, chunked", func(ts *httptest.Server) answer {
			return postChunked(t, ts, ep.path, []byte(`{"app":1}]`))
		}, http.StatusBadRequest)
		both(ep.path+" empty", func(ts *httptest.Server) answer { return post(t, ts, ep.path, nil) }, http.StatusBadRequest)
		whole := body(0)
		both(ep.path+" cut mid-value", func(ts *httptest.Server) answer {
			return postShort(t, ts, ep.path, whole[:len(whole)/2], len(whole)-len(whole)/2)
		}, http.StatusBadRequest)
		both(ep.path+" nothing of a declared body", func(ts *httptest.Server) answer {
			return postShort(t, ts, ep.path, nil, len(whole))
		}, http.StatusBadRequest)
		// A whole value short of the declared length: the stream decoder
		// had its value and answered; a body read whole is a short body.
		// The status differs by design, and only here.
		if got := postShort(t, cur, ep.path, whole, 8); got.status != http.StatusBadRequest || !strings.Contains(got.body, "unexpected EOF") {
			t.Errorf("%s: a body 8 bytes short of its length answered %d %s", ep.path, got.status, got.body)
		}
	}
}

// TestIngestSamplesCodecAnswersAsEncodingJSON: every body of the hostile
// table (internal/ingest/testdata) gets the answer the pre-codec handler
// gives it — the 400 and encoding/json's message for the ones that do
// not decode, the manager's verdict on the decoded request for the rest.
func TestIngestSamplesCodecAnswersAsEncodingJSON(t *testing.T) {
	cur, ref := intakePair(t)
	data, err := os.ReadFile("../ingest/testdata/samples_bodies.txt")
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{strings.Repeat("[", 10000), `{"samples":` + strings.Repeat("[", 10000)}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		body := line[2:]
		if strings.HasPrefix(body, `"`) {
			if body, err = strconv.Unquote(body); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
		}
		bodies = append(bodies, body)
	}
	// No stream is open, so a request that decodes is a 404 on both sides
	// whatever the worker goroutines are doing; one stream each for the
	// bodies that name it, fed nothing that could poison it.
	start := []byte(`{"app":"a","version":"v","run_id":"r"}`)
	if got, want := post(t, cur, "/api/v1/ingest/start", start), post(t, ref, "/api/v1/ingest/start", start); got != want || got.status != http.StatusOK {
		t.Fatalf("start: %+v, %+v", got, want)
	}
	statuses := map[int]int{}
	for _, body := range bodies {
		got, want := post(t, cur, "/api/v1/ingest/samples", []byte(body)), post(t, ref, "/api/v1/ingest/samples", []byte(body))
		if got != want {
			t.Errorf("%.100q answered %d %s, the pre-codec handler %d %s", body, got.status, got.body, want.status, want.body)
		}
		statuses[got.status]++
	}
	if statuses[http.StatusBadRequest] < 20 || statuses[http.StatusNotFound] < 20 || statuses[http.StatusOK] != 1 {
		t.Errorf("the table no longer covers what it should: statuses %v", statuses)
	}
}

package ingest_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/server"
)

// The batch envelope's half of the codec contract (internal/postmortem's
// codec_test.go holds the sample's): SamplesRequestShape, through the
// client's server.MarshalCompact, writes what json.Marshal writes, and
// through its Parse reads what json.Unmarshal
// reads or bails, and no batch this tree produces takes the
// encoding/json path unnoticed.

// codecBatches is every interval of every buildable app/version at
// simulator seeds 1 and 11 (seed 11 only under -short), 20 virtual
// seconds, cut into the 64-sample batches a Reporter ships.
func codecBatches(t testing.TB) []*ingest.SamplesRequest {
	t.Helper()
	var out []*ingest.SamplesRequest
	for _, av := range pinApps {
		for _, seed := range []int64{1, 11} {
			if testing.Short() && seed == 1 {
				continue
			}
			samples := collectVersion(t, av.app, av.version, seed, pinMaxTime)
			for seq := 1; len(samples) > 0; seq++ {
				n := min(64, len(samples))
				out = append(out, &ingest.SamplesRequest{App: av.app, Version: av.version, RunID: "r", Seq: seq, Samples: samples[:n]})
				samples = samples[n:]
			}
		}
	}
	return out
}

var (
	wireLabels = []string{"", "a", "mw:1", `q"\`, "\b\f\n\r\t", "\x00\x1f\x7f", "<&>", "\u2028\u2029", "\u00e9\u4e16\U0001F600", "\ufffd", "a\xffb", "cpu"}
	wireFloats = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 5e-324, math.MaxFloat64, 0.30000000000000004}
	wireCounts = []int{0, 1, -1, math.MaxInt64, math.MinInt64}
)

// wireBatch draws a request from testing/quick and redraws half of its
// members from the escape classes, the float-rule boundaries and the
// integer extremes.
func wireBatch(r *rand.Rand) *ingest.SamplesRequest {
	v, ok := quick.Value(reflect.TypeOf(ingest.SamplesRequest{}), r)
	if !ok {
		panic("testing/quick cannot generate a SamplesRequest")
	}
	req := v.Interface().(ingest.SamplesRequest)
	str := func(ps ...*string) {
		for _, p := range ps {
			if r.Intn(2) == 0 {
				*p = wireLabels[r.Intn(len(wireLabels))] + wireLabels[r.Intn(len(wireLabels))]
			}
		}
	}
	str(&req.App, &req.Version, &req.RunID)
	for i := range req.Samples {
		s := &req.Samples[i]
		str(&s.Proc, &s.Node, &s.Mod, &s.Fn, &s.Tag, &s.Kind)
		for _, p := range []*float64{&s.Start, &s.End} {
			if r.Intn(2) == 0 {
				*p = wireFloats[r.Intn(len(wireFloats))]
			}
		}
		for _, p := range []*int{&s.Msgs, &s.Bytes, &s.Calls, &req.Seq} {
			if r.Intn(2) == 0 {
				*p = wireCounts[r.Intn(len(wireCounts))]
			}
		}
	}
	switch r.Intn(8) {
	case 0:
		req.Samples = nil
	case 1:
		req.Samples = []ingest.Sample{}
	}
	return &req
}

func checkMarshal(t *testing.T, req *ingest.SamplesRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.MarshalCompact(req)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalCompact differs from json.Marshal (%v):\ngot  %.2000s\nwant %.2000s", err, got, want)
	}
}

func TestMarshalSamplesRequestMatchesEncodingJSON(t *testing.T) {
	// Every batch as the client writes it, and every interval of it as
	// TraceWriter writes its line of a trace file.
	t.Run("corpus", func(t *testing.T) {
		var file, want bytes.Buffer
		tw := postmortem.NewTraceWriter(&file)
		for _, req := range codecBatches(t) {
			checkMarshal(t, req)
			for _, s := range req.Samples {
				iv, err := s.Interval()
				if err != nil {
					t.Fatal(err)
				}
				tw.OnInterval(iv)
				line, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(append(line, '\n'))
			}
		}
		if err := tw.Flush(); err != nil || !bytes.Equal(file.Bytes(), want.Bytes()) {
			t.Fatalf("the trace file of %d intervals differs from json.Marshal's lines (%v)", tw.Intervals(), err)
		}
	})
	t.Run("edges", func(t *testing.T) {
		checkMarshal(t, nil)
		checkMarshal(t, &ingest.SamplesRequest{})
		checkMarshal(t, &ingest.SamplesRequest{App: "a", Version: "v", RunID: "r", Seq: -1, Samples: []ingest.Sample{}})
		checkMarshal(t, &ingest.SamplesRequest{App: "a", RunID: "r", Seq: 1, Samples: []ingest.Sample{{}, {Proc: "p", Node: "n", Kind: "cpu", End: 1, Calls: 1}}})
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(41))
		for i := 0; i < 1000; i++ {
			checkMarshal(t, wireBatch(r))
		}
	})
	// A float JSON cannot spell is encoding/json's to refuse, wherever in
	// the batch it sits.
	t.Run("non-finite", func(t *testing.T) {
		for _, bad := range []ingest.Sample{{Start: math.NaN()}, {End: math.Inf(1)}, {Start: math.Inf(-1), End: math.Inf(1)}} {
			req := &ingest.SamplesRequest{App: "a", RunID: "r", Seq: 1, Samples: []ingest.Sample{{Proc: "p"}, bad, {Proc: "q"}}}
			_, err := server.MarshalCompact(req)
			_, want := json.Marshal(req)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("MarshalCompact(%+v) = %v, want encoding/json's %v", bad, err, want)
			}
		}
	})
}

// checkParse decodes data both ways: the strict decoder reads exactly
// what encoding/json reads, or bails and leaves *req alone.
func checkParse(t *testing.T, data []byte) (read bool) {
	t.Helper()
	kept := ingest.SamplesRequest{App: "kept", Samples: []ingest.Sample{{Proc: "kept"}}}
	got, want := kept, ingest.SamplesRequest{}
	if !ingest.SamplesRequestShape.Parse(data, &got) {
		if !reflect.DeepEqual(got, kept) {
			t.Fatalf("a bail on %.200q wrote through: %+v", data, got)
		}
		return false
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("the strict decoder read %+v out of %.200q, which encoding/json refuses: %v", got, data, err)
	}
	a, errA := json.Marshal(got) // tells -0 from 0, which DeepEqual does not
	b, errB := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("strict decode of %.200q differs from json.Unmarshal:\ngot  %.2000s\nwant %.2000s", data, a, b)
	}
	// And what it read, it writes as encoding/json does.
	if re, err := server.MarshalCompact(&got); err != nil || !bytes.Equal(re, a) {
		t.Fatalf("re-encoding differs from json.Marshal (%v):\ngot  %.2000s\nwant %.2000s", err, re, a)
	}
	return true
}

type samplesBody struct {
	body string
	read bool
}

// samplesBodies reads testdata/samples_bodies.txt, the table of hostile
// and merely unusual request bodies internal/server's tests share: read
// marks the ones the strict decoder is expected to take, everything else
// it must hand to encoding/json.
func samplesBodies(t testing.TB) (out []samplesBody) {
	t.Helper()
	data, err := os.ReadFile("testdata/samples_bodies.txt")
	if err != nil {
		t.Fatal(err)
	}
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
		out = append(out, samplesBody{body, line[0] == '+'})
	}
	for _, deep := range []string{strings.Repeat("[", 10000), `{"samples":` + strings.Repeat("[", 10000)} {
		out = append(out, samplesBody{deep, false})
	}
	return out
}

func TestParseSamplesRequestMatchesEncodingJSON(t *testing.T) {
	for _, c := range samplesBodies(t) {
		if read := checkParse(t, []byte(c.body)); read != c.read {
			t.Errorf("SamplesRequestShape.Parse(%.120q) = %v, want %v", c.body, read, c.read)
		}
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		body, err := json.Marshal(wireBatch(r))
		if err != nil {
			t.Fatal(err)
		}
		checkParse(t, body)
	}
}

// TestSamplesRequestTakesFastPath: every batch of the corpus is written
// by the direct encoder (one buffer, where encoding/json's fallback
// would allocate more) and read by the strict decoder without bailing,
// compact or indented — so a change that sends real traffic down the
// encoding/json path is a red test, not a silently lost gain. A decoded
// batch holds each distinct label once (23-38 allocations a full batch).
func TestSamplesRequestTakesFastPath(t *testing.T) {
	for _, req := range codecBatches(t) {
		// Averaged, so that an allocation on some other goroutine of the
		// test binary does not read as the fallback's.
		if n := testing.AllocsPerRun(10, func() { server.MarshalCompact(req) }); n >= 2 {
			t.Fatalf("%s batch %d: encoding allocates %v times, want its one buffer", req.App, req.Seq, n)
		}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			if !checkParse(t, body) {
				t.Fatalf("%s batch %d: the strict decoder bailed on %d bytes this tree encoded", req.App, req.Seq, len(body))
			}
		}
		var got ingest.SamplesRequest
		n := testing.AllocsPerRun(1, func() { ingest.SamplesRequestShape.Parse(compact, &got) })
		if len(req.Samples) == 64 && n >= 64 { // six labels a sample, were they not shared
			t.Fatalf("%s batch %d: decoding 64 samples allocates %v times; labels are not shared", req.App, req.Seq, n)
		}
	}
}

// FuzzSamplesRequestMatchesEncodingJSON: on arbitrary bytes, whatever the
// strict decoder reads encoding/json reads too, to the same value, and
// that value re-encodes to json.Marshal's bytes — so the server's decode
// is json.Unmarshal, and the client's encode json.Marshal, on every
// input.
func FuzzSamplesRequestMatchesEncodingJSON(f *testing.F) {
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 8; i++ {
		req := wireBatch(r)
		if len(req.Samples) > 2 { // small enough for the mutator to get through
			req.Samples = req.Samples[:2]
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, c := range samplesBodies(f) {
		if len(c.body) < 1000 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/core"
)

// The two shapes that carry a directive text — the harvest response pcd
// writes and the diagnose request the client writes — are written and
// read by the codec, byte for byte what encoding/json writes and reads.

// diagHarvest is the bench's diagnose harvest, the paper's "Priorities &
// All Prunes".
var diagHarvest = core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}

// corpusHarvests are the harvest responses of the four poisson versions'
// base runs, the later three mapped from A's namespace, as pcd answers
// them.
func corpusHarvests(t testing.TB) []HarvestResponse {
	t.Helper()
	recs := corpusRecords(t)[:4]
	var out []HarvestResponse
	for i, rec := range recs {
		ds := core.Harvest(rec, diagHarvest)
		var resp HarvestResponse
		if i > 0 {
			maps := core.InferMappings(recs[0].Resources, rec.Resources)
			mapped, err := core.ApplyMappings(core.Harvest(recs[0], diagHarvest), maps)
			if err != nil {
				t.Fatal(err)
			}
			resp.Mappings, resp.MappingCount = core.FormatMappings(maps), len(maps)
			ds = mapped
		}
		resp.Source, resp.Directives = ds.Source, core.FormatDirectives(ds)
		resp.Prunes, resp.Priorities, resp.Thresholds = len(ds.Prunes), len(ds.Priorities), len(ds.Thresholds)
		out = append(out, resp)
	}
	return out
}

// checkDirectiveShapes holds the codec's encodings of h and of a diagnose
// request carrying its text to encoding/json's, and requires the strict
// decoder to read both back as encoding/json does.
func checkDirectiveShapes(t *testing.T, h HarvestResponse, req *DiagnoseRequest) {
	t.Helper()
	got, err := MarshalCanonical(h)
	if want := stdCanonical(t, h); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("harvest response: MarshalCanonical differs from json.MarshalIndent (%v):\ngot  %.600q\nwant %.600q", err, got, want)
	}
	checkStrict[HarvestResponse](t, "harvest response", got)
	compact, err := MarshalCompact(req)
	want, werr := json.Marshal(req)
	if err != nil || werr != nil || !bytes.Equal(compact, want) {
		t.Fatalf("diagnose request: MarshalCompact differs from json.Marshal (%v, %v):\ngot  %.600q\nwant %.600q", err, werr, compact, want)
	}
	checkStrict[DiagnoseRequest](t, "diagnose request", compact)
	checkStrict[DiagnoseRequest](t, "diagnose request, indented", stdCanonical(t, req))
}

// wireDiagnose draws a diagnose request from testing/quick, half its
// strings and its float redrawn from the escape classes and float-rule
// boundaries, and some members zero, for omitempty.
func wireDiagnose(r *rand.Rand) *DiagnoseRequest {
	v, ok := quick.Value(reflect.TypeOf(DiagnoseRequest{}), r)
	if !ok {
		panic("testing/quick cannot generate a DiagnoseRequest")
	}
	req := v.Interface().(DiagnoseRequest)
	for _, s := range []*string{&req.App, &req.Version, &req.RunID, &req.Directives, &req.Mappings, &req.IdempotencyKey} {
		switch r.Intn(3) {
		case 0:
			*s = wireStrings[r.Intn(len(wireStrings))] + wireStrings[r.Intn(len(wireStrings))]
		case 1:
			*s = ""
		}
	}
	if r.Intn(2) == 0 {
		req.MaxTime = wireFloats[r.Intn(len(wireFloats))]
	}
	if r.Intn(3) == 0 {
		req.NodeOffset, req.Seed, req.Procs = 0, 0, 0
	}
	return &req
}

func TestDirectiveShapesMatchEncodingJSON(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		for i, h := range corpusHarvests(t) {
			checkDirectiveShapes(t, h, &DiagnoseRequest{App: "poisson", Version: "B", RunID: "d-c0-000001", Seed: int64(i + 1), Directives: h.Directives, Save: true})
		}
	})
	t.Run("edges", func(t *testing.T) {
		checkDirectiveShapes(t, HarvestResponse{}, &DiagnoseRequest{})
		checkDirectiveShapes(t, HarvestResponse{Source: "s", MappingCount: -1}, &DiagnoseRequest{MaxTime: math.Copysign(0, -1), Seed: math.MinInt64, Procs: math.MaxInt})
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		for i := 0; i < 1000; i++ {
			req := wireDiagnose(r)
			h := HarvestResponse{Source: req.RunID, Directives: req.Directives, Prunes: req.Procs, Mappings: req.Mappings, MappingCount: req.PidBase}
			checkDirectiveShapes(t, h, req)
		}
	})
	// A float JSON cannot spell is encoding/json's to refuse.
	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			req := &DiagnoseRequest{App: "a", MaxTime: f}
			_, err := MarshalCompact(req)
			_, want := json.Marshal(req)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("MarshalCompact(max_time %v) = %v, want encoding/json's %v", f, err, want)
			}
		}
	})
}

// directiveBailSeeds is one input per way a directive shape can make the
// strict decoder bail.
var directiveBailSeeds = []string{
	`{"app":"a","directives":null}`,
	`{"app":"a","App":"b"}`,
	`{"app":"a","app":"b"}`,
	`{"app":"a","seed":1.5}`,
	`{"app":"a","seed":99999999999999999999}`,
	`{"app":"a","save":"true"}`,
	`{"app":"a","max_time":1e999}`,
	`{"directives":"\ud800"}`,
	`{"prunes":-}`,
	`{"source":"s","more":1}`,
	`{"app":"a"} {}`,
	`{"app":"a",}`,
	`["app"]`,
}

// FuzzDirectiveShapesMatchEncodingJSON: what the strict decoder reads
// out of a harvest response or a diagnose request, encoding/json reads
// too, to the same value; and what encoding/json reads, the codec writes
// back as encoding/json does.
func FuzzDirectiveShapesMatchEncodingJSON(f *testing.F) {
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 8; i++ {
		req := wireDiagnose(r)
		for _, s := range []*string{&req.App, &req.Version, &req.RunID, &req.Directives, &req.Mappings, &req.IdempotencyKey} {
			*s = strings.ToValidUTF8(*s, "?") // seeds the decoder reads
		}
		compact, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
		f.Add(stdCanonical(f, HarvestResponse{Source: req.RunID, Directives: req.Directives, Prunes: req.Procs, MappingCount: req.PidBase}))
	}
	f.Add([]byte("{\n  \"directives\": \"prune * /Machine\\npriority high CPUbound \\u003c/Code,/Machine,/Process,/SyncObject\\u003e\\n\",\n  \"prunes\": 1,\n  \"priorities\": 1,\n  \"thresholds\": 0\n}\n"))
	for _, in := range directiveBailSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStrict[HarvestResponse](t, data)
		fuzzStrict[DiagnoseRequest](t, data)
		var h HarvestResponse
		if json.Unmarshal(data, &h) == nil {
			got, err := MarshalCanonical(h)
			if want := stdCanonical(t, h); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("MarshalCanonical differs from json.MarshalIndent:\ngot  %q\nwant %q", got, want)
			}
		}
		var req DiagnoseRequest
		if json.Unmarshal(data, &req) == nil {
			got, err := MarshalCompact(&req)
			want, werr := json.Marshal(&req)
			if err != nil || werr != nil || !bytes.Equal(got, want) {
				t.Fatalf("MarshalCompact differs from json.Marshal:\ngot  %q\nwant %q", got, want)
			}
		}
	})
}

func TestCodecBailsOnDirectiveSeeds(t *testing.T) {
	for _, in := range directiveBailSeeds {
		if unmarshalStrict([]byte(in), &DiagnoseRequest{}) || unmarshalStrict([]byte(in), &HarvestResponse{}) {
			t.Errorf("unmarshalStrict(%q) read it, want a bail", in)
		}
	}
}

// BenchmarkDirectiveRoundTrip prices each step a directive set takes from
// harvest to diagnose, on poisson B's harvest (the bench's "Priorities &
// All Prunes", about 69 KB of text): the response's encode in pcd and
// decode in the client, the request's encode in the client and decode in
// pcd, and the set's compile and bind to a session's space — fresh, as
// for a text pcd did not write, and from the cache, as for one it did.
// The codec steps run beside encoding/json's.
func BenchmarkDirectiveRoundTrip(b *testing.B) {
	rec := corpusRecords(b)[1]
	cache := core.NewHarvestCache()
	ds := cache.Harvest(rec, diagHarvest)
	h := HarvestResponse{Source: ds.Source, Directives: cache.Format(ds), Prunes: len(ds.Prunes), Priorities: len(ds.Priorities)}
	body := stdCanonical(b, h)
	req := &DiagnoseRequest{App: rec.App, Version: rec.Version, RunID: "d-c0-000001", Seed: 1, Directives: h.Directives, Save: true}
	reqBody, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	a, err := app.Build(rec.App, rec.Version, app.Options{})
	if err != nil {
		b.Fatal(err)
	}
	space, err := a.Space()
	if err != nil {
		b.Fatal(err)
	}
	steps := []struct {
		name string
		size int
		run  func() error
	}{
		{"harvest-encode/direct", len(body), func() (err error) { benchSink, err = MarshalCanonical(h); return }},
		{"harvest-encode/stdlib", len(body), func() (err error) { benchSink, err = json.MarshalIndent(h, "", "  "); return }},
		{"client-decode/direct", len(body), func() error { return UnmarshalCanonical(body, &HarvestResponse{}) }},
		{"client-decode/stdlib", len(body), func() error { return json.Unmarshal(body, &HarvestResponse{}) }},
		{"request-encode/direct", len(reqBody), func() (err error) { benchSink, err = MarshalCompact(req); return }},
		{"request-encode/stdlib", len(reqBody), func() (err error) { benchSink, err = json.Marshal(req); return }},
		{"server-decode/direct", len(reqBody), func() error { return UnmarshalCanonical(reqBody, &DiagnoseRequest{}) }},
		{"server-decode/stdlib", len(reqBody), func() error { return json.Unmarshal(reqBody, &DiagnoseRequest{}) }},
		{"compile-bind/fresh", len(h.Directives), func() error {
			ds, err := core.ParseDirectives(strings.NewReader(h.Directives))
			if err == nil {
				benchSink, _ = ds.Compile().Bind(space)
			}
			return err
		}},
		{"compile-bind/cached", len(h.Directives), func() error {
			_, guide, err := cache.Directives(h.Directives)
			if err == nil {
				benchSink, _ = guide.Bind(space)
			}
			return err
		}},
	}
	for _, s := range steps {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(s.size))
			for i := 0; i < b.N; i++ {
				if err := s.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

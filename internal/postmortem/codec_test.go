package postmortem

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/history"
	"repro/internal/sim"
)

// The serialized interval's half of the codec contract (internal/
// history's codec_test.go holds the record's, internal/ingest's the
// batch envelope's): SampleShape writes what json.Marshal writes, and
// reads what json.Unmarshal reads or says it will not,
// and a trace file's bytes and errors are what they were when
// encoding/json did both.

var (
	codecLabels = []string{"", "a", "mw:1", "n01", `q"\`, "\b\f\n\r\t", "\x00\x1f\x7f", "<&>", "é世😀", "\u2028\u2029", "\ufffd", "a\xffb", "cpu", "sync_wait", "io_wait"}
	codecFloats = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1e22, 5e-324, math.MaxFloat64, -math.MaxFloat64, 0.30000000000000004, 123456789.12345679}
	codecCounts = []int{0, 1, -1, 64, math.MaxInt64, math.MinInt64}
)

// codecSample draws a sample from testing/quick and redraws half of its
// members from the escape classes, the float-rule boundaries and the
// integer extremes.
func codecSample(r *rand.Rand) Sample {
	v, ok := quick.Value(reflect.TypeOf(Sample{}), r)
	if !ok {
		panic("testing/quick cannot generate a Sample")
	}
	s := v.Interface().(Sample)
	for _, p := range []*string{&s.Proc, &s.Node, &s.Mod, &s.Fn, &s.Tag, &s.Kind} {
		if r.Intn(2) == 0 {
			*p = codecLabels[r.Intn(len(codecLabels))] + codecLabels[r.Intn(len(codecLabels))]
		}
	}
	for _, p := range []*float64{&s.Start, &s.End} {
		if r.Intn(2) == 0 {
			*p = codecFloats[r.Intn(len(codecFloats))]
		}
	}
	for _, p := range []*int{&s.Msgs, &s.Bytes, &s.Calls} {
		if r.Intn(2) == 0 {
			*p = codecCounts[r.Intn(len(codecCounts))]
		}
	}
	return s
}

func checkAppendSample(t *testing.T, s Sample) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := SampleShape.Append([]byte("kept"), &s, -1)
	if !ok || !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Fatalf("SampleShape.Append differs from json.Marshal (ok=%v):\ngot  %s\nwant kept%s", ok, got, want)
	}
	// What it wrote it reads back, without bailing, as encoding/json does.
	var back, std Sample
	var d history.Decoder
	d.Reset(want)
	SampleShape.Decode(&d, &back)
	valid := true
	for _, l := range []string{s.Proc, s.Node, s.Mod, s.Fn, s.Tag, s.Kind} {
		valid = valid && strings.ToValidUTF8(l, "") == l
	}
	if err := json.Unmarshal(want, &std); err != nil {
		t.Fatal(err)
	}
	if !d.End() || !reflect.DeepEqual(back, std) {
		t.Fatalf("strict decode of %s: bailed=%v\ngot  %+v\nwant %+v", want, !d.End(), back, std)
	}
	if valid && back != s {
		t.Fatalf("%+v did not survive its round trip: %+v", s, back)
	}
}

func TestAppendSampleMatchesEncodingJSON(t *testing.T) {
	t.Run("edges", func(t *testing.T) {
		checkAppendSample(t, Sample{})
		checkAppendSample(t, Sample{Proc: "p", Node: "n", Kind: "cpu", End: 1})
		checkAppendSample(t, Sample{Proc: "p", Node: "n", Mod: "m", Fn: "f", Tag: "t", Kind: "warp", Start: -1, End: 1, Msgs: 1, Bytes: 2, Calls: 3})
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		for i := 0; i < 2000; i++ {
			checkAppendSample(t, codecSample(r))
		}
	})
	// A time JSON cannot spell is encoding/json's to refuse, and the
	// writer latches that error.
	t.Run("non-finite", func(t *testing.T) {
		for _, iv := range []sim.Interval{
			{Labels: &sim.Labels{Process: "p", Node: "n"}, Start: math.NaN(), End: 1},
			{Labels: &sim.Labels{Process: "p", Node: "n"}, Start: 0, End: math.Inf(1)},
			{Labels: &sim.Labels{Process: "p", Node: "n"}, Start: math.Inf(-1), End: math.Inf(1)},
		} {
			s := FromInterval(iv)
			if got, ok := SampleShape.Append([]byte("kept"), &s, -1); ok || string(got) != "kept" {
				t.Errorf("SampleShape.Append(%+v) = %q, %v", s, got, ok)
			}
			var out bytes.Buffer
			tw := NewTraceWriter(&out)
			tw.OnInterval(iv)
			tw.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p", Node: "n"}, End: 1})
			_, want := json.Marshal(s)
			if err := tw.Flush(); err == nil || want == nil || err.Error() != want.Error() || tw.Intervals() != 0 || out.Len() != 0 {
				t.Errorf("Flush after %+v = %v with %d bytes written, want encoding/json's %v and none", iv, err, out.Len(), want)
			}
		}
	})
}

// TestTraceWriterAllocatesNothingPerInterval: a line is built in the
// free space of the writer's bufio.Writer; only one that straddles its
// end is built apart.
func TestTraceWriterAllocatesNothingPerInterval(t *testing.T) {
	tw := NewTraceWriter(&bytes.Buffer{})
	iv := sim.Interval{Labels: &sim.Labels{Process: "mw:3", Node: "n03", Module: "worker.c", Function: "compute", Tag: "t/1"},
		Kind: sim.KindSyncWait, Start: 1.25, End: 2.0000001, Msgs: 1, Bytes: 4096, Calls: 1}
	tw.OnInterval(iv)
	if n := testing.AllocsPerRun(200, func() { tw.OnInterval(iv) }); n != 0 {
		t.Errorf("OnInterval allocates %v times", n)
	}
}

// sampleLineSeeds is one line per way a serialized interval can make the
// strict decoder bail, and a few it reads.
var sampleLineSeeds = []string{
	`{"proc":"p:1","node":"n01","mod":"a.c","fn":"main","kind":"cpu","start":0,"end":1.5,"calls":1}`,
	` { "proc" : "p" , "node" : "n" , "kind" : "io_wait" , "start" : 2 , "end" : 2.25 } `,
	`{"end":3,"start":1,"kind":"sync_wait","node":"n","proc":"p"}`,
	`{"proc":"p\u00e9\n\/é","node":"\u2028","kind":"cpu","start":-0,"end":1e2}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"msgs":-1,"bytes":-9223372036854775808,"calls":9223372036854775807}`,
	`{"Proc":"p","node":"n","kind":"cpu","start":0,"end":1}`,
	`{"proc":"p","proc":"q","node":"n","kind":"cpu","start":0,"end":1}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"extra":true}`,
	`{"proc":null,"node":"n","kind":"cpu","start":0,"end":1}`,
	`{"proc":"p","node":"n","kind":null,"start":0,"end":1}`,
	`{"proc":"p","node":"n","kind":"cpu","start":null,"end":1}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"msgs":null}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"msgs":1.0}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"bytes":1e2}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,"calls":9223372036854775808}`,
	`{"proc":"p","node":"n","kind":"cpu","start":00,"end":1}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":01}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1e999}`,
	`{"proc":"p","node":"n","kind":"cpu","start":"0","end":1}`,
	`{"proc":"\ud83d\ude00","node":"\ud800","kind":"cpu","start":0,"end":1}`,
	`{"proc":"\u0000","node":"\q","kind":"cpu","start":0,"end":1}`,
	"{\"proc\":\"p\xff\",\"node\":\"n\",\"kind\":\"cpu\",\"start\":0,\"end\":1}",
	"{\"proc\":\"p\x01\",\"node\":\"n\",\"kind\":\"cpu\",\"start\":0,\"end\":1}",
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1} x`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1}{}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1,}`,
	`{"proc":"p","node":"n","kind":"cpu","start":0,"end":1`,
	`{"proc":"p","node":"n","kind":"warp","start":0,"end":1}`,
	`{"proc":"","node":"n","kind":"cpu","start":0,"end":1}`,
	`{"proc":"p","node":"n","kind":"cpu","start":2,"end":1}`,
	`[]`, `null`, `{}`, ``, `not json at all`,
}

// checkSampleLine holds the strict reader and ReadTrace to encoding/json
// on one line: the same sample or a bail, the same aggregate or the same
// error.
func checkSampleLine(t *testing.T, line []byte) {
	t.Helper()
	var got, std Sample
	stdErr := json.Unmarshal(line, &std)
	var d history.Decoder
	d.Reset(line)
	SampleShape.Decode(&d, &got)
	if d.End() {
		a, _ := json.Marshal(got) // tells -0 from 0, which DeepEqual does not
		b, _ := json.Marshal(std)
		if stdErr != nil || !reflect.DeepEqual(got, std) || !bytes.Equal(a, b) {
			t.Fatalf("strict decode of %q = %+v, encoding/json has %+v, %v", line, got, std, stdErr)
		}
	}
	// ReadTrace before the codec, on this one line.
	want, wantErr := NewRecorder(), stdErr
	if wantErr == nil {
		var iv sim.Interval
		if iv, wantErr = std.Interval(); wantErr == nil {
			want.OnInterval(iv)
		}
	}
	rec, err := ReadTrace(bytes.NewReader(line))
	switch {
	case len(line) == 0:
		if err != nil || len(rec.aggs) != 0 {
			t.Fatalf("ReadTrace of nothing = %v", err)
		}
	case wantErr != nil:
		if msg := "postmortem: trace line 1: " + wantErr.Error(); err == nil || err.Error() != msg {
			t.Fatalf("ReadTrace(%q) = %v, want %s", line, err, msg)
		}
	case err != nil || !SameAggregate(rec, want):
		t.Fatalf("ReadTrace(%q) = %v, or another aggregate than encoding/json's sample gives", line, err)
	}
}

func TestSampleCodecReadsAsEncodingJSON(t *testing.T) {
	for _, line := range sampleLineSeeds {
		checkSampleLine(t, []byte(line))
	}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 500; i++ {
		line, err := json.Marshal(codecSample(r))
		if err != nil {
			t.Fatal(err)
		}
		checkSampleLine(t, line)
	}
}

// TestSampleDecoderSharesLabels: the samples of one decoder that spell a
// label alike hold one copy of it, and none of them aliases the input.
func TestSampleDecoderSharesLabels(t *testing.T) {
	line := []byte(`{"proc":"mw:1","node":"n01","mod":"w.c","fn":"f","tag":"t","kind":"cpu","start":0,"end":1}`)
	var d history.Decoder
	var a, b Sample
	for _, s := range []*Sample{&a, &b} {
		d.Reset(line)
		if SampleShape.Decode(&d, s); !d.End() {
			t.Fatal("bailed")
		}
	}
	want := a
	for i := range line {
		line[i] = 'x'
	}
	if a != want || b != want {
		t.Fatalf("a decoded sample aliases its input: %+v", a)
	}
	for _, l := range [][2]string{{a.Proc, b.Proc}, {a.Node, b.Node}, {a.Mod, b.Mod}, {a.Fn, b.Fn}, {a.Tag, b.Tag}, {a.Kind, b.Kind}} {
		if unsafe.StringData(l[0]) != unsafe.StringData(l[1]) {
			t.Errorf("label %q is held twice", l[0])
		}
	}
}

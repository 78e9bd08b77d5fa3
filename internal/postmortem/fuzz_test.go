package postmortem_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ingest"
	"repro/internal/postmortem"
)

// FuzzSampleLine feeds arbitrary bytes to the one decoder of a
// serialized interval, as both of its callers do. As a trace line they
// must never panic ReadTrace, and a line it accepts, written back by
// TraceWriter and read again, must aggregate to the same Recorder. As a
// one-sample batch of a stream, Engine.Feed and Finalize must either
// return an error or a record that validates.
func FuzzSampleLine(f *testing.F) {
	for _, seed := range []string{
		`{"proc":"p:1","node":"n01","mod":"a.c","fn":"main","kind":"cpu","start":0,"end":1.5,"calls":1}`,
		`{"proc":"p:1","node":"n01","mod":"a.c","fn":"recv","tag":"t1","kind":"sync_wait","start":1.5,"end":2,"msgs":1,"bytes":64}`,
		`{"proc":"p:1","node":"n01","kind":"io_wait","start":2,"end":2.25}`,
		`{"proc":"p/1","node":"n,01","mod":"<a>","fn":"f","kind":"cpu","start":0,"end":1}`,
		"{\"proc\":\"p\xff\",\"node\":\"\\ud800\",\"kind\":\"cpu\",\"start\":0,\"end\":2}",
		`{"proc":"p","node":"n","kind":"cpu","start":-1e308,"end":1e308}`,
		`{"proc":"p","node":"n","kind":"cpu","start":0,"end":3,"msgs":-1,"bytes":-9223372036854775808,"calls":-7}`,
		`{"proc":"p","node":"n","kind":"warp","start":0,"end":1}`,
		`{"proc":"","node":"n","kind":"cpu","start":0,"end":1}`,
		`{"proc":"p","node":"n","kind":"cpu","start":2,"end":1}`,
		`not json at all`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		rec, err := postmortem.ReadTrace(bytes.NewReader(line))
		if err != nil || rec.Combinations() == 0 {
			return
		}
		var s postmortem.Sample
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("ReadTrace accepted a line that does not decode: %v", err)
		}
		iv, err := s.Interval()
		if err != nil {
			t.Fatalf("ReadTrace accepted a sample that does not validate: %v", err)
		}
		var out bytes.Buffer
		tw := postmortem.NewTraceWriter(&out)
		tw.OnInterval(iv)
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := postmortem.ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("the line TraceWriter wrote for %+v is refused: %v", iv, err)
		}
		if !postmortem.SameAggregate(rec, again) {
			t.Fatalf("line %q aggregates differently once re-written as %q", line, out.Bytes())
		}

		eng := ingest.NewEngine("fuzz", "", "r", ingest.EngineOptions{})
		if err := eng.Feed([]ingest.Sample{s}); err != nil {
			return
		}
		record, _, err := eng.Finalize(0)
		if err != nil {
			return
		}
		if err := record.Validate(); err != nil {
			t.Fatalf("sample %+v finalized into an invalid record: %v", s, err)
		}
	})
}

package postmortem_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// FuzzSampleLine feeds arbitrary bytes to the one decoder of a
// serialized interval, as both of its callers do. As a trace line they
// must never panic ReadTrace, which must accept, refuse and aggregate
// them exactly as encoding/json and Sample.Interval alone would; a line
// it accepts, written back by TraceWriter — json.Marshal's bytes — and
// read again, must aggregate to the same Recorder. As a
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
		line = bytes.TrimSuffix(line, []byte("\r")) // as the line scanner does
		if len(line) == 0 {
			return
		}
		// The line as encoding/json and the validator alone have it: the
		// strict reader in front of them changes neither verdict nor value.
		var s postmortem.Sample
		var iv sim.Interval
		wantErr := json.Unmarshal(line, &s)
		if wantErr == nil {
			iv, wantErr = s.Interval()
		}
		if wantErr != nil {
			if err == nil || err.Error() != "postmortem: trace line 1: "+wantErr.Error() {
				t.Fatalf("ReadTrace(%q) = %v, want %v", line, err, wantErr)
			}
			return
		}
		want := postmortem.NewRecorder()
		want.OnInterval(iv)
		if err != nil || !postmortem.SameAggregate(rec, want) {
			t.Fatalf("ReadTrace(%q) = %v, or not the aggregate of %+v", line, err, iv)
		}
		var out bytes.Buffer
		tw := postmortem.NewTraceWriter(&out)
		tw.OnInterval(iv)
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if std, err := json.Marshal(postmortem.FromInterval(iv)); err != nil || !bytes.Equal(out.Bytes(), append(std, '\n')) {
			t.Fatalf("TraceWriter wrote %q, json.Marshal %q (%v)", out.Bytes(), std, err)
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

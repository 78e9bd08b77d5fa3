package postmortem

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/sim"
)

func TestTraceWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	rec1 := NewRecorder()
	feed := func(o interface{ OnInterval(sim.Interval) }) {
		feedTraceTo(o)
	}
	feed(tw)
	feed(rec1)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Intervals() != 40 {
		t.Errorf("Intervals = %d", tw.Intervals())
	}
	rec2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.aggs) != len(rec1.aggs) || rec2.End() != rec1.End() {
		t.Errorf("round trip changed aggregation: %d/%v vs %d/%v",
			len(rec2.aggs), rec2.End(), len(rec1.aggs), rec1.End())
	}
	// Values computed from both recorders agree.
	sp1, procs1, err := rec1.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	sp2, procs2, err := rec2.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs1) != len(procs2) {
		t.Fatal("proc sets differ")
	}
	ev1, _ := NewEvaluator(sp1, procs1, rec1, 10)
	ev2, _ := NewEvaluator(sp2, procs2, rec2, 10)
	v1, _ := ev1.Value(metric.SyncWaitTime, sp1.WholeProgram())
	v2, _ := ev2.Value(metric.SyncWaitTime, sp2.WholeProgram())
	if math.Abs(v1-v2) > 1e-9 {
		t.Errorf("values differ: %v vs %v", v1, v2)
	}
}

// feedTraceTo emits the same miniature workload as feedTrace but to any
// observer.
func feedTraceTo(o interface{ OnInterval(sim.Interval) }) {
	for i := 0; i < 10; i++ {
		ts := float64(i)
		o.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "sweep.f", Function: "sweep1d"},
			Kind: sim.KindCPU, Start: ts, End: ts + 0.8, Calls: 1})
		o.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
			Kind: sim.KindSyncWait, Start: ts + 0.8, End: ts + 1, Msgs: 1, Bytes: 100, Calls: 1})
		o.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "sweep.f", Function: "sweep1d"},
			Kind: sim.KindCPU, Start: ts, End: ts + 0.2, Calls: 1})
		o.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p2", Node: "sp02", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
			Kind: sim.KindSyncWait, Start: ts + 0.2, End: ts + 1, Calls: 1})
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		`{"proc":"p","node":"n","kind":"warp","start":0,"end":1}`, // bad kind
		`{"proc":"","node":"n","kind":"cpu","start":0,"end":1}`,   // empty proc
		`{"proc":"p","node":"n","kind":"cpu","start":5,"end":1}`,  // end < start
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("ReadTrace(%q) succeeded", c)
		}
	}
	// Blank lines are tolerated.
	ok := `{"proc":"p","node":"n","kind":"cpu","start":0,"end":1}

{"proc":"p","node":"n","kind":"io_wait","start":1,"end":2}`
	rec, err := ReadTrace(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.aggs) != 2 {
		t.Errorf("combinations = %d", len(rec.aggs))
	}
}

func TestInferExecution(t *testing.T) {
	rec := NewRecorder()
	feedTraceTo(rec)
	sp, procs, err := rec.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 || procs[0].Name != "p1" || procs[1].Node != "sp02" {
		t.Errorf("procs = %+v", procs)
	}
	for _, p := range []string{
		"/Code/sweep.f/sweep1d", "/Code/oned.f/main",
		"/Machine/sp01", "/Process/p2", "/SyncObject/Message/tag_3_0",
	} {
		if _, ok := sp.Find(p); !ok {
			t.Errorf("missing inferred resource %s", p)
		}
	}
	// A process on two nodes is an inconsistent trace.
	rec.OnInterval(sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "elsewhere"}, Kind: sim.KindCPU, Start: 0, End: 1})
	if _, _, err := rec.InferExecution(); err == nil {
		t.Error("inconsistent trace accepted")
	}
	// An empty trace is rejected.
	if _, _, err := NewRecorder().InferExecution(); err == nil {
		t.Error("empty trace accepted")
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errWriteFail
	}
	return len(p), nil
}

var errWriteFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestTraceWriterPropagatesErrors(t *testing.T) {
	tw := NewTraceWriter(&failingWriter{})
	// Overflow the bufio buffer so the underlying writer is hit.
	big := sim.Interval{Labels: &sim.Labels{Process: "p", Node: "n", Module: strings.Repeat("m", 2048), Function: "f"},
		Kind: sim.KindCPU, Start: 0, End: 1}
	for i := 0; i < 64; i++ {
		tw.OnInterval(big)
	}
	if err := tw.Flush(); err == nil {
		t.Error("write error not propagated")
	}
}

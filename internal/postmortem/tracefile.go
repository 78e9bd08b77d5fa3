package postmortem

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/history"
	"repro/internal/sim"
)

// Sample is the serialized form of one attributed activity interval:
// one line of a trace file (one JSON object per line), one element of a
// streamed sample batch. It is the interchange point with "different
// monitoring tools": anything that can emit attributed intervals can
// feed the postmortem evaluator, from a file or live.
type Sample struct {
	Proc  string  `json:"proc"`
	Node  string  `json:"node"`
	Mod   string  `json:"mod,omitempty"`
	Fn    string  `json:"fn,omitempty"`
	Tag   string  `json:"tag,omitempty"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Msgs  int     `json:"msgs,omitempty"`
	Bytes int     `json:"bytes,omitempty"`
	Calls int     `json:"calls,omitempty"`
}

// SampleShape is the member table of a serialized interval: a trace
// line and a batch element are written and read by it. Its strings are
// labels, which repeat from sample to sample.
var SampleShape = history.NewShape(
	history.Field("proc", func(s *Sample) *string { return &s.Proc }, history.Label),
	history.Field("node", func(s *Sample) *string { return &s.Node }, history.Label),
	history.OmitEmpty("mod", func(s *Sample) *string { return &s.Mod }, history.Label),
	history.OmitEmpty("fn", func(s *Sample) *string { return &s.Fn }, history.Label),
	history.OmitEmpty("tag", func(s *Sample) *string { return &s.Tag }, history.Label),
	history.Field("kind", func(s *Sample) *string { return &s.Kind }, history.Label),
	history.Field("start", func(s *Sample) *float64 { return &s.Start }, history.Float),
	history.Field("end", func(s *Sample) *float64 { return &s.End }, history.Float),
	history.OmitEmpty("msgs", func(s *Sample) *int { return &s.Msgs }, history.Int),
	history.OmitEmpty("bytes", func(s *Sample) *int { return &s.Bytes }, history.Int),
	history.OmitEmpty("calls", func(s *Sample) *int { return &s.Calls }, history.Int),
)

// FromInterval converts a simulator interval to its serialized form; the
// kind is spelled as sim.Kind prints it.
func FromInterval(iv sim.Interval) Sample {
	return Sample{
		Proc: iv.Process, Node: iv.Node,
		Mod: iv.Module, Fn: iv.Function, Tag: iv.Tag,
		Kind: iv.Kind.String(), Start: iv.Start, End: iv.End,
		Msgs: iv.Msgs, Bytes: iv.Bytes, Calls: iv.Calls,
	}
}

// kindNames is sim.Kind.String, the one table of kind names, spelled
// out once so that a sample's kind is resolved by comparison.
var kindNames = [...]string{
	sim.KindCPU: sim.KindCPU.String(), sim.KindSyncWait: sim.KindSyncWait.String(), sim.KindIOWait: sim.KindIOWait.String(),
}

// Interval validates a sample and converts it back to a simulator
// interval, with labels of its own.
func (s Sample) Interval() (sim.Interval, error) { return s.IntervalIn(new(sim.Labels)) }

// IntervalIn is Interval with the labels written to *l: a caller that
// hands each interval to observers which copy what they keep of its
// labels (a Recorder, Execution.Discover) converts every sample into one
// Labels and allocates nothing.
func (s Sample) IntervalIn(l *sim.Labels) (sim.Interval, error) {
	kind := slices.Index(kindNames[:], s.Kind)
	if kind < 0 {
		return sim.Interval{}, fmt.Errorf("postmortem: unknown activity kind %q", s.Kind)
	}
	if s.Proc == "" || s.Node == "" {
		return sim.Interval{}, fmt.Errorf("postmortem: sample missing proc or node")
	}
	if s.End < s.Start {
		return sim.Interval{}, fmt.Errorf("postmortem: sample interval ends (%g) before it starts (%g)", s.End, s.Start)
	}
	*l = sim.Labels{Process: s.Proc, Node: s.Node, Module: s.Mod, Function: s.Fn, Tag: s.Tag}
	return sim.Interval{
		Labels: l, Kind: sim.Kind(kind),
		Start: s.Start, End: s.End,
		Msgs: s.Msgs, Bytes: s.Bytes, Calls: s.Calls,
	}, nil
}

// TraceWriter is a sim.Observer that streams every interval to a writer
// in the trace file format.
type TraceWriter struct {
	bw  *bufio.Writer
	err error
	n   int
}

// NewTraceWriter creates a writer; call Flush when the run completes.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{bw: bufio.NewWriter(w)}
}

// OnInterval implements sim.Observer.
func (t *TraceWriter) OnInterval(iv sim.Interval) {
	if t.err != nil {
		return
	}
	s := FromInterval(iv)
	line, ok := SampleShape.Append(t.bw.AvailableBuffer(), &s, -1)
	if !ok {
		_, t.err = json.Marshal(s)
		return
	}
	if _, err := t.bw.Write(append(line, '\n')); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Flush flushes buffered lines and reports the first error encountered.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// Intervals returns the number of intervals written.
func (t *TraceWriter) Intervals() int { return t.n }

// ReadTrace loads a trace file into a Recorder.
func ReadTrace(r io.Reader) (*Recorder, error) {
	rec := NewRecorder()
	var d history.Decoder // one for the whole trace, which shares its labels
	var labels sim.Labels // every line's, copied by the recorder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line Sample
		d.Reset(raw)
		if SampleShape.Decode(&d, &line); !d.End() {
			line = Sample{}
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("postmortem: trace line %d: %w", lineno, err)
			}
		}
		iv, err := line.IntervalIn(&labels)
		if err != nil {
			return nil, fmt.Errorf("postmortem: trace line %d: %w", lineno, err)
		}
		rec.OnInterval(iv)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

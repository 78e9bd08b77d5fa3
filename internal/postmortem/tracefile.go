package postmortem

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

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

// Interval validates a sample and converts it back to a simulator
// interval.
func (s Sample) Interval() (sim.Interval, error) {
	// sim.Kind.String is the one table of kind names; this inverts it.
	kind := sim.KindCPU
	for ; kind.String() != s.Kind; kind++ {
		if kind == sim.KindIOWait {
			return sim.Interval{}, fmt.Errorf("postmortem: unknown activity kind %q", s.Kind)
		}
	}
	if s.Proc == "" || s.Node == "" {
		return sim.Interval{}, fmt.Errorf("postmortem: sample missing proc or node")
	}
	if s.End < s.Start {
		return sim.Interval{}, fmt.Errorf("postmortem: sample interval ends (%g) before it starts (%g)", s.End, s.Start)
	}
	return sim.Interval{
		Process: s.Proc, Node: s.Node,
		Module: s.Mod, Function: s.Fn, Tag: s.Tag,
		Kind: kind, Start: s.Start, End: s.End,
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
	data, err := json.Marshal(FromInterval(iv))
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(append(data, '\n')); err != nil {
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
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("postmortem: trace line %d: %w", lineno, err)
		}
		iv, err := line.Interval()
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

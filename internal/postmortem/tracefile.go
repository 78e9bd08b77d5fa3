package postmortem

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

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
// interval.
func (s Sample) Interval() (sim.Interval, error) {
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
	return sim.Interval{
		Process: s.Proc, Node: s.Node,
		Module: s.Mod, Function: s.Fn, Tag: s.Tag,
		Kind: sim.Kind(kind), Start: s.Start, End: s.End,
		Msgs: s.Msgs, Bytes: s.Bytes, Calls: s.Calls,
	}, nil
}

// The direct codec of the serialized interval, in the pattern of
// internal/history's record codec and over its scanner and appenders:
// the writer spells what json.Marshal has always produced for a Sample,
// byte for byte; the reader is strict and bails on whatever it would
// have to interpret, and the caller then runs encoding/json over the
// same bytes. A trace file and a streamed batch both go through this
// pair, and the tests hold both halves to the standard library.

// AppendSample appends s as json.Marshal writes it: compact, members in
// the struct's order, mod, fn, tag, msgs, bytes and calls left out when
// zero. A start or end that JSON cannot spell appends nothing and
// returns false: the error is encoding/json's to give.
func AppendSample(dst []byte, s *Sample) ([]byte, bool) {
	if math.IsInf(s.Start, 0) || math.IsNaN(s.Start) || math.IsInf(s.End, 0) || math.IsNaN(s.End) {
		return dst, false
	}
	dst = history.AppendString(append(dst, `{"proc":`...), s.Proc)
	dst = history.AppendString(append(dst, `,"node":`...), s.Node)
	dst = appendLabel(dst, `,"mod":`, s.Mod)
	dst = appendLabel(dst, `,"fn":`, s.Fn)
	dst = appendLabel(dst, `,"tag":`, s.Tag)
	dst = history.AppendString(append(dst, `,"kind":`...), s.Kind)
	dst = history.AppendFloat(append(dst, `,"start":`...), s.Start)
	dst = history.AppendFloat(append(dst, `,"end":`...), s.End)
	dst = appendCount(dst, `,"msgs":`, s.Msgs)
	dst = appendCount(dst, `,"bytes":`, s.Bytes)
	dst = appendCount(dst, `,"calls":`, s.Calls)
	return append(dst, '}'), true
}

// appendLabel and appendCount append an omitempty member.
func appendLabel(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return history.AppendString(append(dst, key...), v)
}

func appendCount(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

var sampleFields = []string{"proc", "node", "mod", "fn", "tag", "kind", "start", "end", "msgs", "bytes", "calls"}

// SampleDecoder reads serialized intervals off a history.Decoder. The
// labels of a batch or a trace repeat from sample to sample, so every
// distinct one is copied out of the input once and shared by the
// samples that carry it; the zero value is ready to use.
type SampleDecoder struct {
	labels map[string]string
}

// label reads a string that is probably not the first of its spelling.
func (sd *SampleDecoder) label(d *history.Decoder) string {
	b := d.StringBytes()
	if s, ok := sd.labels[string(b)]; ok {
		return s
	}
	if sd.labels == nil {
		sd.labels = make(map[string]string, 32)
	}
	s := string(b)
	sd.labels[s] = s
	return s
}

// Sample reads one sample into s, which must be zero.
func (sd *SampleDecoder) Sample(d *history.Decoder, s *Sample) {
	d.Object(sampleFields, func(i int) {
		switch i {
		case 0:
			s.Proc = sd.label(d)
		case 1:
			s.Node = sd.label(d)
		case 2:
			s.Mod = sd.label(d)
		case 3:
			s.Fn = sd.label(d)
		case 4:
			s.Tag = sd.label(d)
		case 5:
			s.Kind = sd.label(d)
		case 6:
			s.Start = d.Float()
		case 7:
			s.End = d.Float()
		case 8:
			s.Msgs = d.Int()
		case 9:
			s.Bytes = d.Int()
		case 10:
			s.Calls = d.Int()
		}
	})
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
	line, ok := AppendSample(t.bw.AvailableBuffer(), &s)
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
	var sd SampleDecoder
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
		d := history.NewDecoder(raw)
		if sd.Sample(d, &line); !d.End() {
			line = Sample{}
			if err := json.Unmarshal(raw, &line); err != nil {
				return nil, fmt.Errorf("postmortem: trace line %d: %w", lineno, err)
			}
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

package postmortem

import (
	"sort"
	"testing"

	"repro/internal/app"
	"repro/internal/dyninst"
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// fourMapRecorder is the Recorder as it was before it kept one map of
// accumulators: a map per quantity, each hashed with the same key on
// every interval, and a Value that looks every key up again.
type fourMapRecorder struct {
	seconds map[aggKey]float64
	msgs    map[aggKey]int
	bytes   map[aggKey]int
	calls   map[aggKey]int
}

func (r *fourMapRecorder) OnInterval(iv sim.Interval) {
	k := aggKey{*iv.Labels, iv.Kind}
	r.seconds[k] += iv.Duration()
	r.msgs[k] += iv.Msgs
	r.bytes[k] += iv.Bytes
	r.calls[k] += iv.Calls
}

func (r *fourMapRecorder) sortedKeys() []aggKey {
	keys := make([]aggKey, 0, len(r.seconds))
	for k := range r.seconds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.kind < b.kind
	})
	return keys
}

func (r *fourMapRecorder) value(keys []aggKey, procs []dyninst.ProcEntry, elapsed float64, met metric.ID, focus resource.Focus) (float64, error) {
	m := new(dyninst.IntervalMatcher)
	if err := m.Compile(met, focus); err != nil {
		return 0, err
	}
	width := 0
	for _, pe := range procs {
		if m.MatchesProc(pe) {
			width++
		}
	}
	if width == 0 {
		return 0, nil
	}
	var secs float64
	var events int
	for _, k := range keys {
		iv := sim.Interval{Labels: &k.Labels, Kind: k.kind, Start: 0, End: 1}
		if !m.Matches(iv) {
			continue
		}
		secs += r.seconds[k]
		switch met {
		case metric.MsgCount:
			events += r.msgs[k]
		case metric.MsgBytes:
			events += r.bytes[k]
		case metric.ProcCalls:
			events += r.calls[k]
		}
	}
	info, _ := metric.Lookup(met)
	denom := elapsed * float64(width)
	if info.Normalized {
		return secs / denom, nil
	}
	return float64(events) / denom, nil
}

// TestRecorderMatchesFourMapReference records one pipeline run into the
// Recorder and into the four-map reference and requires the same floats
// — equal, not close: the record's usage fractions and every stored
// value are sums of these in this order.
func TestRecorderMatchesFourMapReference(t *testing.T) {
	const elapsed = 20.0
	a, err := app.Build("pipeline", "", app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	ref := &fourMapRecorder{
		seconds: map[aggKey]float64{}, msgs: map[aggKey]int{},
		bytes: map[aggKey]int{}, calls: map[aggKey]int{},
	}
	s.AddObserver(rec)
	s.AddObserver(ref)
	if err := s.Run(elapsed); err != nil {
		t.Fatal(err)
	}

	keys := ref.sortedKeys()
	aggs := rec.sorted()
	if len(aggs) != len(keys) || len(rec.aggs) != len(keys) || len(keys) == 0 {
		t.Fatalf("%d combinations (%d sorted), reference has %d", len(rec.aggs), len(aggs), len(keys))
	}
	for i, k := range keys {
		a := aggs[i]
		if a.key != k {
			t.Fatalf("combination %d is %+v, reference order has %+v", i, a.key, k)
		}
		if a.seconds != ref.seconds[k] || a.msgs != ref.msgs[k] || a.bytes != ref.bytes[k] || a.calls != ref.calls[k] {
			t.Errorf("%+v: totals %v/%d/%d/%d, reference %v/%d/%d/%d", k,
				a.seconds, a.msgs, a.bytes, a.calls, ref.seconds[k], ref.msgs[k], ref.bytes[k], ref.calls[k])
		}
	}

	sp, procs, err := rec.InferExecution()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sp, procs, rec, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	// Every focus within two refinements of the whole program, under
	// every metric: time fractions and the three event rates.
	foci := []resource.Focus{sp.WholeProgram()}
	for _, f := range sp.WholeProgram().AllChildren() {
		foci = append(foci, f)
		foci = append(foci, f.AllChildren()...)
	}
	compared := 0
	for _, f := range foci {
		for _, met := range []metric.ID{metric.CPUTime, metric.SyncWaitTime, metric.IOWaitTime,
			metric.ExecTime, metric.MsgCount, metric.MsgBytes, metric.ProcCalls} {
			got, gotErr := ev.Value(met, f)
			want, wantErr := ref.value(keys, procs, elapsed, met, f)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s %s: error %v, reference %v", met, f.Name(), gotErr, wantErr)
			}
			if got != want {
				t.Errorf("%s %s = %v, reference %v", met, f.Name(), got, want)
			}
			if got != 0 {
				compared++
			}
		}
	}
	if compared < 100 {
		t.Errorf("only %d non-zero values compared over %d foci", compared, len(foci))
	}
}

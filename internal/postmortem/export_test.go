package postmortem

import (
	"reflect"

	"repro/internal/dyninst"
	"repro/internal/metric"
	"repro/internal/resource"
)

// SameAggregate reports whether two recorders hold exactly the same
// combinations, totals and end time, for the external test package.
func SameAggregate(a, b *Recorder) bool {
	return a.end == b.end && reflect.DeepEqual(a.aggs, b.aggs)
}

// Value is Measure of the (metric : focus) pair, its matcher compiled
// for the call, for the external test package.
func (e *Evaluator) Value(met metric.ID, focus resource.Focus) (float64, error) {
	m, err := dyninst.Compile(met, focus)
	if err != nil {
		return 0, err
	}
	return e.Measure(&m), nil
}

package postmortem

import "reflect"

// SameAggregate reports whether two recorders hold exactly the same
// combinations, totals and end time, for the external test package.
func SameAggregate(a, b *Recorder) bool {
	return a.end == b.end && reflect.DeepEqual(a.aggs, b.aggs)
}

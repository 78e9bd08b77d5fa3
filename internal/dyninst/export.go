package dyninst

import (
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// IntervalMatcher is the exported form of a compiled (metric : focus)
// predicate over activity intervals. It lets postmortem tools evaluate
// hypotheses over recorded traces with exactly the semantics the live
// probes use. Compile fills one in.
type IntervalMatcher struct {
	mt matcher
}

// Compile makes m the predicate for a (metric : focus) pair. ErrTooDeep
// means the pair is structurally unmeasurable.
func (m *IntervalMatcher) Compile(met metric.ID, focus resource.Focus) error {
	if err := metric.Validate(met); err != nil {
		return err
	}
	mt, err := newMatcher(met, focus)
	if err != nil {
		return err
	}
	m.mt = mt
	return nil
}

// Metric returns the metric the predicate was compiled for.
func (m *IntervalMatcher) Metric() metric.ID { return m.mt.met }

// Matches reports whether an interval is attributable to the pair.
func (m *IntervalMatcher) Matches(iv sim.Interval) bool { return m.mt.matches(&iv) }

// MatchesProc reports whether the pair's focus covers the process.
func (m *IntervalMatcher) MatchesProc(pe ProcEntry) bool { return m.mt.matchesProc(pe) }

package dyninst

import (
	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// IntervalMatcher is the exported form of a compiled (metric : focus)
// predicate over activity intervals. It lets postmortem tools evaluate
// hypotheses over recorded traces with exactly the semantics the live
// probes use.
type IntervalMatcher struct {
	mt matcher
}

// NewIntervalMatcher compiles the predicate for a (metric : focus) pair.
func NewIntervalMatcher(met metric.ID, focus resource.Focus) (*IntervalMatcher, error) {
	if err := metric.Validate(met); err != nil {
		return nil, err
	}
	mt, err := newMatcher(met, focus)
	if err != nil {
		return nil, err
	}
	return &IntervalMatcher{mt: mt}, nil
}

// Matches reports whether an interval is attributable to the pair.
func (m *IntervalMatcher) Matches(iv sim.Interval) bool { return m.mt.matches(&iv) }

// MatchesProc reports whether the pair's focus covers the process.
func (m *IntervalMatcher) MatchesProc(pe ProcEntry) bool { return m.mt.matchesProc(pe) }

package history

import (
	"repro/internal/resource"
	"repro/internal/sim"
)

// UsageCollector is a whole-trace observer that accumulates busy time per
// resource path, independent of the Performance Consultant's probes. Its
// output is the "raw data needed to test hypotheses postmortem" that the
// historic pruning directives are derived from.
//
// It sees every interval of a session, so the per-interval work is one
// slice index and up to six float additions: the path strings of a label
// set are built the first time the set is seen and remembered as that
// set's accumulators, under its labels and — for an interval a simulator
// numbered — under its Site, so that the five strings are hashed once a
// site rather than once an interval.
type UsageCollector struct {
	seconds map[string]*float64
	seen    map[sim.Labels][]*float64
	bySite  [][]*float64 // seen, indexed by Interval.Site; nil where the site is yet to be met
	nprocs  int
}

// NewUsageCollector creates a collector for an application with nprocs
// processes.
func NewUsageCollector(nprocs int) *UsageCollector {
	return &UsageCollector{
		seconds: make(map[string]*float64),
		seen:    make(map[sim.Labels][]*float64),
		nprocs:  nprocs,
	}
}

// UsagePaths lists the resource paths an interval's time is charged to:
// its module and function, its process and node, and — for tagged
// communication — the message class and the tag.
func UsagePaths(iv *sim.Interval) []string {
	paths := make([]string, 0, 6)
	if iv.Module != "" {
		paths = append(paths, "/"+resource.HierCode+"/"+iv.Module)
		if iv.Function != "" {
			paths = append(paths, "/"+resource.HierCode+"/"+iv.Module+"/"+iv.Function)
		}
	}
	paths = append(paths, "/"+resource.HierProcess+"/"+iv.Process, "/"+resource.HierMachine+"/"+iv.Node)
	if iv.Tag != "" {
		paths = append(paths, "/"+resource.HierSyncObject+"/Message", "/"+resource.HierSyncObject+"/Message/"+iv.Tag)
	}
	return paths
}

// OnInterval implements sim.Observer. Every path receives its additions
// in interval order, so its sum does not depend on how labels are
// resolved.
func (u *UsageCollector) OnInterval(iv sim.Interval) {
	d := iv.Duration()
	if d <= 0 {
		return
	}
	var accs []*float64
	if iv.Site > 0 && iv.Site < len(u.bySite) {
		accs = u.bySite[iv.Site]
	}
	if accs == nil {
		accs = u.resolve(&iv)
	}
	for _, acc := range accs {
		*acc += d
	}
}

// resolve finds a label set's accumulators by its strings, building them
// the first time, and files them under the interval's Site if it has one.
func (u *UsageCollector) resolve(iv *sim.Interval) []*float64 {
	k := *iv.Labels
	accs, ok := u.seen[k]
	if !ok {
		for _, path := range UsagePaths(iv) {
			if u.seconds[path] == nil {
				u.seconds[path] = new(float64)
			}
			accs = append(accs, u.seconds[path])
		}
		u.seen[k] = accs
	}
	if iv.Site > 0 {
		for len(u.bySite) <= iv.Site {
			u.bySite = append(u.bySite, nil)
		}
		u.bySite[iv.Site] = accs
	}
	return accs
}

// Fractions returns per-path fractions of total execution time
// (elapsed x nprocs) as of the given elapsed virtual time.
func (u *UsageCollector) Fractions(elapsed float64) map[string]float64 {
	out := make(map[string]float64, len(u.seconds))
	denom := elapsed * float64(u.nprocs)
	if denom <= 0 {
		return out
	}
	for k, v := range u.seconds {
		out[k] = *v / denom
	}
	return out
}

// Seconds returns the raw per-path accumulated seconds.
func (u *UsageCollector) Seconds() map[string]float64 {
	out := make(map[string]float64, len(u.seconds))
	for k, v := range u.seconds {
		out[k] = *v
	}
	return out
}

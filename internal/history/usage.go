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
// map lookup and up to six float additions: the path strings of a label
// set are built the first time the set is seen and remembered as that
// set's accumulators.
type UsageCollector struct {
	seconds map[string]*float64
	seen    map[usageLabels][]*float64
	nprocs  int
}

// usageLabels are the interval fields a path is built from.
type usageLabels struct{ module, function, process, node, tag string }

// NewUsageCollector creates a collector for an application with nprocs
// processes.
func NewUsageCollector(nprocs int) *UsageCollector {
	return &UsageCollector{
		seconds: make(map[string]*float64),
		seen:    make(map[usageLabels][]*float64),
		nprocs:  nprocs,
	}
}

// OnInterval implements sim.Observer. Every path receives its additions
// in interval order, so its sum does not depend on how labels are
// resolved.
func (u *UsageCollector) OnInterval(iv sim.Interval) {
	d := iv.Duration()
	if d <= 0 {
		return
	}
	k := usageLabels{iv.Module, iv.Function, iv.Process, iv.Node, iv.Tag}
	accs, ok := u.seen[k]
	if !ok {
		accs = u.resolve(k)
		u.seen[k] = accs
	}
	for _, acc := range accs {
		*acc += d
	}
}

// resolve returns the accumulators of the paths an interval labelled k
// is charged to.
func (u *UsageCollector) resolve(k usageLabels) []*float64 {
	paths := make([]string, 0, 6)
	if k.module != "" {
		paths = append(paths, "/"+resource.HierCode+"/"+k.module)
		if k.function != "" {
			paths = append(paths, "/"+resource.HierCode+"/"+k.module+"/"+k.function)
		}
	}
	paths = append(paths, "/"+resource.HierProcess+"/"+k.process, "/"+resource.HierMachine+"/"+k.node)
	if k.tag != "" {
		paths = append(paths, "/"+resource.HierSyncObject+"/Message", "/"+resource.HierSyncObject+"/Message/"+k.tag)
	}
	accs := make([]*float64, len(paths))
	for i, path := range paths {
		if u.seconds[path] == nil {
			u.seconds[path] = new(float64)
		}
		accs[i] = u.seconds[path]
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

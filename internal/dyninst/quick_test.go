package dyninst

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metric"
	"repro/internal/resource"
	"repro/internal/sim"
)

// The label values the quick tests draw intervals from, and the space
// that names them all.
var (
	quickMods = []string{"oned.f", "sweep.f", "util.f"}
	quickFns  = map[string][]string{
		"oned.f":  {"main", "setup"},
		"sweep.f": {"sweep1d"},
		"util.f":  {"clock"},
	}
	quickTags  = []string{"", "tag_3_0", "tag_3_1"}
	quickKinds = []sim.Kind{sim.KindCPU, sim.KindSyncWait, sim.KindIOWait}
	quickProcs = []ProcEntry{{Name: "p1", Node: "sp01"}, {Name: "p2", Node: "sp02"}}
)

func quickSpace() *resource.Space {
	sp := resource.NewStandardSpace()
	for m, fl := range quickFns {
		for _, f := range fl {
			sp.MustAdd("/Code/" + m + "/" + f)
		}
	}
	sp.MustAdd("/Machine/sp01")
	sp.MustAdd("/Machine/sp02")
	sp.MustAdd("/Process/p1")
	sp.MustAdd("/Process/p2")
	sp.MustAdd("/SyncObject/Message/tag_3_0")
	sp.MustAdd("/SyncObject/Message/tag_3_1")
	return sp
}

// quickLabels draws a label set; the module may be one the space lacks.
func quickLabels(rng *rand.Rand) *sim.Labels {
	mod := quickMods[rng.Intn(len(quickMods))]
	fl := quickFns[mod]
	pe := quickProcs[rng.Intn(len(quickProcs))]
	return &sim.Labels{Process: pe.Name, Node: pe.Node, Module: mod, Function: fl[rng.Intn(len(fl))], Tag: quickTags[rng.Intn(len(quickTags))]}
}

func randomFocus(sp *resource.Space, rng *rand.Rand) resource.Focus {
	f := sp.WholeProgram()
	for _, h := range sp.Hierarchies() {
		r := h.Root()
		for r.NumChildren() > 0 && rng.Intn(2) == 1 {
			kids := r.Children()
			r = kids[rng.Intn(len(kids))]
		}
		f = f.MustWithSelection(r)
	}
	return f
}

// TestQuickProbeMatchesBruteForce cross-checks probe accumulation against
// a direct brute-force computation over random interval streams and
// random foci: for every (metric : focus) pair, the probe's accumulated
// seconds must equal the sum of matching interval overlap with the
// probe's lifetime.
func TestQuickProbeMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := quickSpace()
		m, err := NewManager(DefaultConfig(), sp, quickProcs)
		if err != nil {
			return false
		}
		mets := []metric.ID{metric.CPUTime, metric.SyncWaitTime, metric.IOWaitTime, metric.ExecTime}
		met := mets[rng.Intn(len(mets))]
		focus := randomFocus(sp, rng)
		insertAt := rng.Float64() * 5
		probe, err := m.Request(met, focus, insertAt)
		if err != nil {
			return false
		}
		var matcher IntervalMatcher
		if err := matcher.Compile(met, focus); err != nil {
			return false
		}
		var want float64
		for i := 0; i < 60; i++ {
			start := rng.Float64() * 20
			iv := sim.Interval{
				Labels: quickLabels(rng),
				Kind:   quickKinds[rng.Intn(len(quickKinds))],
				Start:  start,
				End:    start + rng.Float64()*2,
			}
			m.OnInterval(iv)
			if matcher.Matches(iv) {
				lo := math.Max(iv.Start, probe.activeAt)
				if lo < iv.End {
					want += iv.End - lo
				}
			}
		}
		got := probe.hist.Total()
		return math.Abs(got-want) < 1e-9*(1+want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickSiteDispatchMatchesOfferingAll: over random schedules of
// Request, Remove and intervals — sited ones, whose site's probe list may
// be built before or after a probe is requested or removed, and unsited
// ones — every probe's histogram and event count equal those of a shadow
// probe that is offered every interval while it is active and takes the
// ones its matcher accepts.
func TestQuickSiteDispatchMatchesOfferingAll(t *testing.T) {
	mets := []metric.ID{metric.CPUTime, metric.SyncWaitTime, metric.IOWaitTime, metric.ExecTime,
		metric.MsgCount, metric.MsgBytes, metric.ProcCalls}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := quickSpace()
		m, err := NewManager(DefaultConfig(), sp, quickProcs)
		if err != nil {
			return false
		}
		// A simulator's sites: one shared Labels each, numbered from 1.
		sites := make([]*sim.Labels, 1+rng.Intn(12))
		for i := range sites {
			sites[i] = quickLabels(rng)
		}
		var probes, shadows, live []*Probe
		now := 0.0
		for step := 0; step < 300; step++ {
			now += rng.Float64() * 0.2
			switch r := rng.Intn(10); {
			case r == 0 || len(live) == 0:
				p, err := m.Request(mets[rng.Intn(len(mets))], randomFocus(sp, rng), now)
				if err != nil {
					return false
				}
				hist, _ := metric.NewFoldingTimeHistogram(m.cfg.BinWidth, m.cfg.MaxHistogramBins)
				shadow := *p
				shadow.hist = hist
				probes, shadows, live = append(probes, p), append(shadows, &shadow), append(live, p)
			case r == 1:
				j := rng.Intn(len(live))
				m.Remove(live[j], now)
				live = append(live[:j], live[j+1:]...)
			default:
				iv := sim.Interval{
					Kind:  quickKinds[rng.Intn(len(quickKinds))],
					Start: now - rng.Float64(), End: now,
					Msgs: rng.Intn(3), Bytes: rng.Intn(4096), Calls: rng.Intn(3),
				}
				if rng.Intn(4) == 0 {
					iv.Labels = quickLabels(rng)
				} else {
					iv.Site = 1 + rng.Intn(len(sites))
					iv.Labels = sites[iv.Site-1]
				}
				m.OnInterval(iv)
				for i, s := range shadows {
					if !probes[i].Removed() && s.matcher.matches(&iv) {
						s.accumulate(&iv)
					}
				}
			}
		}
		for i, p := range probes {
			if p.events != shadows[i].events || !reflect.DeepEqual(*p.hist, *shadows[i].hist) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCostConservation verifies that any sequence of requests and
// removals leaves TotalCost exactly at the sum of live probes' costs, and
// zero once everything is removed.
func TestQuickCostConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := resource.NewStandardSpace()
		sp.MustAdd("/Process/p1")
		sp.MustAdd("/Process/p2")
		sp.MustAdd("/Machine/n1")
		sp.MustAdd("/Machine/n2")
		sp.MustAdd("/SyncObject/Message/t")
		m, err := NewManager(DefaultConfig(), sp,
			[]ProcEntry{{Name: "p1", Node: "n1"}, {Name: "p2", Node: "n2"}})
		if err != nil {
			return false
		}
		var live []*Probe
		for i := 0; i < 40; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				m.Remove(live[j], float64(i))
				live = append(live[:j], live[j+1:]...)
				continue
			}
			f := sp.WholeProgram()
			if rng.Intn(2) == 0 {
				r, _ := sp.Find(fmt.Sprintf("/Process/p%d", 1+rng.Intn(2)))
				f = f.MustWithSelection(r)
			}
			if rng.Intn(3) == 0 {
				r, _ := sp.Find("/SyncObject/Message/t")
				f = f.MustWithSelection(r)
			}
			p, err := m.Request(metric.SyncWaitTime, f, float64(i))
			if err != nil {
				return false
			}
			live = append(live, p)
		}
		var want float64
		for _, p := range live {
			want += float64(p.width) * p.procCost
		}
		want /= 2 // two processes
		if math.Abs(m.TotalCost()-want) > 1e-9 {
			return false
		}
		for _, p := range live {
			m.Remove(p, 100)
		}
		return m.TotalCost() == 0 && m.ActiveProbes() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

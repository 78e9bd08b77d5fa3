package history

import (
	"testing"

	"repro/internal/app"
	"repro/internal/resource"
	"repro/internal/sim"
)

type intervalLog []sim.Interval

func (l *intervalLog) OnInterval(iv sim.Interval) { *l = append(*l, iv) }

// poissonCIntervals is the interval stream of the first 20 virtual
// seconds of an unperturbed Poisson C run.
func poissonCIntervals(tb testing.TB) []sim.Interval {
	tb.Helper()
	a, err := app.Poisson("C", app.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := a.NewSimulator(sim.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var log intervalLog
	s.AddObserver(&log)
	if err := s.RunUntil(20); err != nil {
		tb.Fatal(err)
	}
	if len(log) < 1000 {
		tb.Fatalf("only %d intervals recorded", len(log))
	}
	return log
}

// stringKeyedSeconds is the reference: every interval builds its six
// path strings and adds into a map keyed by them.
func stringKeyedSeconds(ivs []sim.Interval) map[string]float64 {
	seconds := make(map[string]float64)
	for _, iv := range ivs {
		d := iv.Duration()
		if d <= 0 {
			continue
		}
		if iv.Module != "" {
			seconds["/"+resource.HierCode+"/"+iv.Module] += d
			if iv.Function != "" {
				seconds["/"+resource.HierCode+"/"+iv.Module+"/"+iv.Function] += d
			}
		}
		seconds["/"+resource.HierProcess+"/"+iv.Process] += d
		seconds["/"+resource.HierMachine+"/"+iv.Node] += d
		if iv.Tag != "" {
			seconds["/"+resource.HierSyncObject+"/Message"] += d
			seconds["/"+resource.HierSyncObject+"/Message/"+iv.Tag] += d
		}
	}
	return seconds
}

// Usage fractions are stored in every record, so the collector must give
// the reference's floats exactly: same paths, same additions in the same
// order — whether it finds a label set by the Site its simulator gave
// it, by its strings (Site 0: a trace line, a streamed sample), or by
// both in turn.
func TestUsageCollectorMatchesStringKeyedReference(t *testing.T) {
	ivs := poissonCIntervals(t)
	want := stringKeyedSeconds(ivs)
	replays := map[string]func(i int, iv sim.Interval) sim.Interval{
		"numbered":    func(_ int, iv sim.Interval) sim.Interval { return iv },
		"site zeroed": func(_ int, iv sim.Interval) sim.Interval { iv.Site = 0; return iv },
		"interleaved": func(i int, iv sim.Interval) sim.Interval {
			if i%3 == 0 {
				iv.Site = 0
			}
			return iv
		},
	}
	for name, as := range replays {
		u := NewUsageCollector(4)
		for i, iv := range ivs {
			if iv.Site == 0 {
				t.Fatalf("interval %d of a simulator has no Site: %+v", i, iv)
			}
			u.OnInterval(as(i, iv))
		}
		got := u.Seconds()
		if len(got) != len(want) {
			t.Fatalf("%s: %d paths, want %d", name, len(got), len(want))
		}
		const elapsed = 20
		fr := u.Fractions(elapsed)
		for path, w := range want {
			if g, ok := got[path]; !ok || g != w {
				t.Errorf("%s: Seconds[%s] = %v (present %v), want %v", name, path, g, ok, w)
			}
			if g, w := fr[path], w/(elapsed*4.0); g != w {
				t.Errorf("%s: Fractions[%s] = %v, want %v", name, path, g, w)
			}
		}
	}
}

func TestUsageCollectorSteadyStateDoesNotAllocate(t *testing.T) {
	u := NewUsageCollector(2)
	iv := sim.Interval{Labels: &sim.Labels{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main", Tag: "tag_3_0"},
		Kind: sim.KindSyncWait, Start: 0, End: 2}
	for _, site := range []int{0, 7} {
		iv.Site = site
		u.OnInterval(iv)
		if n := testing.AllocsPerRun(100, func() { u.OnInterval(iv) }); n != 0 {
			t.Errorf("OnInterval on a seen label set (Site %d) allocates %v times", site, n)
		}
	}
}

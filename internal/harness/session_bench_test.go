package harness

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
)

// diagnoseJobs are the tuning steps of the benchmark's diagnose
// workload: the directives harvested from the source's base run, mapped
// into the destination's namespace when the versions differ, steer a
// session of the destination.
var diagnoseJobs = []struct{ app, src, dst string }{
	{"poisson", "A", "A"},
	{"poisson", "A", "B"},
	{"poisson", "B", "C"},
	{"poisson", "C", "D"},
	{"mw", "", ""},
	{"pipeline", "", ""},
}

// BenchmarkDiagnoseSession runs the diagnose workload's six directed
// sessions as one op, each under a seed that changes from op to op (a
// cycle of eight), with the directives harvested "Priorities & All
// Prunes" and compiled once beforehand, as pcd's harvest cache does.
// It prices what a diagnose request spends in sim, dyninst and the
// consultant, without the wire and the store.
func BenchmarkDiagnoseSession(b *testing.B) {
	env := NewEnv(nil)
	opt := core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}
	base := func(name, version string) {
		a, err := app.Build(name, version, app.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSessionConfig()
		cfg.RunID = "base"
		res, err := RunSession(a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.SaveResult(res); err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range []string{"A", "B", "C", "D"} {
		base("poisson", v)
	}
	base("mw", "")
	base("pipeline", "")

	type job struct {
		a   *app.App
		cfg SessionConfig
	}
	jobs := make([]job, len(diagnoseJobs))
	for i, j := range diagnoseJobs {
		mapTo := ""
		if j.src != j.dst {
			mapTo = j.dst + ":base"
		}
		ds, _, err := env.HarvestRuns(j.app, []string{j.src + ":base"}, opt, "", mapTo)
		if err != nil {
			b.Fatal(err)
		}
		a, err := app.Build(j.app, j.dst, app.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSessionConfig()
		cfg.Directives, cfg.Guide = ds, ds.Compile()
		jobs[i] = job{a, cfg}
	}

	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			cfg := j.cfg
			cfg.Sim.Seed = int64(i%8) + 1
			res, err := RunSession(j.a, cfg)
			if err != nil {
				b.Fatal(err)
			}
			pairs += res.PairsTested
		}
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

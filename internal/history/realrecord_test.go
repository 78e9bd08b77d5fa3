package history_test

import (
	"sync"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/history"
)

// The real records the codec benchmarks read beside the synthetic one:
// a seeded undirected diagnosis of poisson D (about 480 KB encoded) and
// of pipeline (about 195 KB). Their foci hardly repeat and most of their
// values are 0, which the synthetic record does not show.
func init() {
	history.SetRealRecords(sync.OnceValues(func() ([]*history.RunRecord, error) {
		var recs []*history.RunRecord
		for _, av := range [][2]string{{"poisson", "D"}, {"pipeline", ""}} {
			a, err := app.Build(av[0], av[1], app.Options{})
			if err != nil {
				return nil, err
			}
			cfg := harness.DefaultSessionConfig()
			cfg.RunID = "base"
			res, err := harness.RunSession(a, cfg)
			if err != nil {
				return nil, err
			}
			recs = append(recs, res.Record)
		}
		return recs, nil
	}))
}

package main

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/postmortem"
	"repro/internal/sim"
)

// appVersion names one buildable application version.
type appVersion struct{ App, Version string }

func (av appVersion) String() string {
	if av.Version == "" {
		return av.App
	}
	return av.App + "-" + av.Version
}

// corpusApps is every app/version the registry builds, in a fixed
// order. One undirected diagnosis of each is the record corpus: real
// pcrun output, 45–483 KB a record, not a synthetic stand-in.
var corpusApps = []appVersion{
	{"poisson", "A"}, {"poisson", "B"}, {"poisson", "C"}, {"poisson", "D"},
	{"ocean", ""}, {"tester", ""}, {"seismic", ""}, {"mw", ""}, {"pipeline", ""},
}

// baseRunID names the undirected corpus run of each app/version.
const baseRunID = "base"

// corpus is the set of real run records every put is derived from.
type corpus struct {
	recs []*history.RunRecord
}

// buildCorpus runs one undirected diagnosis session per app/version,
// calling lap after each (set-up is paced session by session).
// It is deterministic: the sessions use the default simulator seed.
func buildCorpus(lap func()) (*corpus, error) {
	c := &corpus{}
	for _, av := range corpusApps {
		a, err := app.Build(av.App, av.Version, app.Options{})
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", av, err)
		}
		cfg := harness.DefaultSessionConfig()
		cfg.RunID = baseRunID
		res, err := harness.RunSession(a, cfg)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", av, err)
		}
		c.recs = append(c.recs, res.Record)
		lap()
	}
	return c, nil
}

// canonicalBytes is the exact encoding Store.Save writes to a record
// file and the journal: two-space indented JSON, no trailing newline.
func canonicalBytes(rec *history.RunRecord) ([]byte, error) {
	return json.MarshalIndent(rec, "", "  ")
}

// mix64 is the splitmix64 finalizer. Every generated choice is
// mix64 of (seed, client, op index, salt), never the next draw of a
// stateful generator, so the op sequence is a pure function of those
// four numbers and cannot depend on how fast the server answered.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash4(seed int64, client, idx, salt int) uint64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(int64(client)+1))
	h = mix64(h ^ uint64(int64(idx)+1))
	return mix64(h ^ uint64(int64(salt)+1))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// derive re-keys corpus record slot under (app, version, runID) and
// jitters its measured values by up to ±0.5% from key, leaving every
// conclusion (state, threshold, true count) as the real run had it.
// The maps are shared with the corpus record and must stay read-only.
func (c *corpus) derive(slot int, appName, version, runID string, key uint64) *history.RunRecord {
	src := c.recs[slot]
	rec := *src
	rec.App, rec.Version, rec.RunID = appName, version, runID
	rec.Duration = src.Duration * (1 + 0.01*(unit(mix64(key))-0.5))
	rec.Results = make([]history.NodeResult, len(src.Results))
	for i, nr := range src.Results {
		nr.Value *= 1 + 0.01*(unit(mix64(key^uint64(i+1)))-0.5)
		rec.Results[i] = nr
	}
	return &rec
}

// sameRecord reports whether two records carry the same content.
func sameRecord(a, b *history.RunRecord) bool {
	if a.App != b.App || a.Version != b.Version || a.RunID != b.RunID ||
		a.Duration != b.Duration || a.PairsTested != b.PairsTested || a.TrueCount != b.TrueCount ||
		len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return reflect.DeepEqual(a.Resources, b.Resources) &&
		reflect.DeepEqual(a.ProcNodes, b.ProcNodes) &&
		reflect.DeepEqual(a.Usage, b.Usage)
}

// streamApps are the archetypes with a known bottleneck signature, the
// only ones steps-to-signature is defined for.
var streamApps = []string{"mw", "pipeline"}

const (
	streamSeeds   = 16   // distinct simulated runs per stream app
	streamMaxTime = 20.0 // virtual seconds each simulated run executes
	streamBatch   = 64   // samples per shipped batch
	// histRuns finalized runs per stream app are put in the store before
	// the load, under run ids that sort after every measured stream's, so
	// the daemon's "last N stored runs" harvest always picks exactly
	// these and steps-to-signature does not depend on which measured
	// streams happened to finish first.
	histRuns = 8
)

// sampleStream is one simulated run's activity intervals in wire form.
type sampleStream struct {
	App     string
	Samples []ingest.Sample
}

type collectObserver struct{ out []ingest.Sample }

func (o *collectObserver) OnInterval(iv sim.Interval) {
	o.out = append(o.out, ingest.FromInterval(iv))
}

// buildStreams simulates streamSeeds runs of every stream app, calling
// lap after each. Stream i of app a is a pure function of (seed, a, i).
func buildStreams(seed int64, lap func()) (map[string][]*sampleStream, error) {
	out := make(map[string][]*sampleStream)
	for ai, name := range streamApps {
		for i := 0; i < streamSeeds; i++ {
			a, err := app.Build(name, "", app.Options{})
			if err != nil {
				return nil, err
			}
			simSeed := int64(hash4(seed, -2, i, ai)%1_000_000) + 1
			s, err := a.NewSimulator(sim.Config{Seed: simSeed})
			if err != nil {
				return nil, err
			}
			obs := &collectObserver{}
			s.AddObserver(obs)
			if err := s.Run(streamMaxTime); err != nil {
				return nil, fmt.Errorf("simulate %s stream %d: %w", name, i, err)
			}
			out[name] = append(out[name], &sampleStream{App: name, Samples: obs.out})
			lap()
		}
	}
	return out, nil
}

// batchDiagnose is the reference every finalized stream is held to:
// the whole sample set diagnosed at once by the postmortem path.
func batchDiagnose(st *sampleStream, runID string) (*history.RunRecord, error) {
	rec := postmortem.NewRecorder()
	for _, s := range st.Samples {
		iv, err := s.Interval()
		if err != nil {
			return nil, err
		}
		rec.OnInterval(iv)
	}
	sp, procs, err := rec.InferExecution()
	if err != nil {
		return nil, err
	}
	ev, err := postmortem.NewEvaluator(sp, procs, rec, streamMaxTime)
	if err != nil {
		return nil, err
	}
	return ev.BuildRecord(st.App, "", runID, nil)
}

// streamWatch is the app's known bottleneck signature in wire form.
func streamWatch(name string) ([]ingest.Watch, error) {
	sig, err := app.KnownBottlenecks(name, app.Options{})
	if err != nil {
		return nil, err
	}
	w := make([]ingest.Watch, len(sig))
	for i, b := range sig {
		w[i] = ingest.Watch{Hyp: b.Hyp, Path: b.Path}
	}
	return w, nil
}

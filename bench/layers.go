package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/sim"
)

// The direct-call pass works on fixed sets, never against a clock: a
// count taken over however much fits a time budget changes with the
// machine's speed, and the counts here are reported as exact.
const (
	// layerEntries is how many stored records each storage stage is timed on.
	layerEntries = 48
	// layerRounds is how many rounds of the six diagnose jobs are run
	// directly: the ops the load's client runs first.
	layerRounds = 2
)

// timeEach calls f for i = 0..n-1 and returns the durations in µs.
func timeEach(n int, f func(i int) error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return out, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// layerMetrics times each layer directly, outside the server, on the
// inputs the workload used. Every number here is a ceiling or a share
// for one of the end-to-end metrics (README, layer table).
func layerMetrics(cfg runConfig, wl workload, w *world, topo *topology, m map[string]float64) error {
	scratch := filepath.Join(cfg.work, "layers-"+wl.Name())
	defer os.RemoveAll(scratch)
	switch wl.Name() {
	case "write-durable", "write-replicated":
		return storageLayers(scratch, topo, m)
	case "read-mixed":
		xs, err := timeEach(len(w.corp.recs), func(i int) error {
			core.Harvest(w.corp.recs[i], core.HarvestAll())
			return nil
		})
		m["core.harvest_us_p50"] = median(xs)
		return err
	case "diagnose":
		return searchLayers(wl.(*diagnoseWorkload), w, m)
	case "stream":
		return ingestLayers(wl.(*streamWorkload), w, m)
	}
	return nil
}

// storageLayers splits a durable Save into its stages by calling each
// on the workload's own journal entries.
func storageLayers(scratch string, topo *topology, m map[string]float64) error {
	// The workload's entries: an even sample of the records it left,
	// as the journal frames that carried them.
	st, err := history.OpenStoreAuto(topo.primary.dir, 0, history.DurableOptions{})
	if err != nil {
		return err
	}
	keys := st.Keys()
	step := len(keys)/layerEntries + 1
	var entries []history.WALEntry
	var recs []*history.RunRecord
	for i := 0; i < len(keys); i += step {
		k := keys[i]
		rec, err := st.Load(k.App, k.Version, k.RunID)
		if err != nil {
			return err
		}
		data, err := canonicalBytes(rec)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		entries = append(entries, history.WALEntry{Op: history.WALOpPut, App: k.App, Version: k.Version, RunID: k.RunID, Data: data})
	}
	st.Close()

	mem := history.NewMemStore()
	xs, err := timeEach(len(recs), func(i int) error { return mem.Save(recs[i]) })
	if err != nil {
		return err
	}
	m["history.save_mem_us_p50"] = median(xs)

	for _, pol := range []history.SyncPolicy{history.SyncAlways, history.SyncNone} {
		wal, err := history.StartWAL(filepath.Join(scratch, "wal-"+string(pol)), history.WALOptions{Sync: pol})
		if err != nil {
			return err
		}
		xs, err := timeEach(len(entries), func(i int) error { return wal.Append(entries[i]) })
		wal.Close()
		if err != nil {
			return err
		}
		m["history.wal_append_"+string(pol)+"_us_p50"] = median(xs)
	}

	fol, err := history.OpenStoreDurable(filepath.Join(scratch, "apply"), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		return err
	}
	defer fol.Close()
	xs, err = timeEach(len(entries), func(i int) error { return fol.ApplyReplicated(entries[i]) })
	if err != nil {
		return err
	}
	m["replica.apply_us_p50"] = median(xs)
	return nil
}

// searchLayers runs the diagnose jobs as direct harness.RunSession
// calls, and the same applications bare, to split a session into
// simulation and search.
func searchLayers(wl *diagnoseWorkload, w *world, m map[string]float64) error {
	var sessionUS, simUS, searchUS []float64
	var events, simSeconds, vtime float64
	var pairs, stalls, requests int
	var maxCost float64
	n := layerRounds * len(diagJobs)
	_, err := timeEach(n, func(i int) error {
		req := diagRequest(w, 0, i, wl.harvests[i%len(diagJobs)].Directives)
		t0 := time.Now()
		res, err := sessionFor(req)
		if err != nil {
			return err
		}
		session := time.Since(t0)
		a, err := app.Build(req.App, req.Version, app.Options{})
		if err != nil {
			return err
		}
		s, err := a.NewSimulator(sim.Config{Seed: req.Seed})
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := s.Run(res.EndTime); err != nil {
			return err
		}
		bare := time.Since(t0)
		sessionUS = append(sessionUS, float64(session)/1e3)
		simUS = append(simUS, float64(bare)/1e3)
		searchUS = append(searchUS, float64(session-bare)/1e3)
		events += float64(s.EventsProcessed())
		simSeconds += bare.Seconds()
		pairs += res.Consultant.TestedPairs()
		stalls += res.Consultant.StallEvents()
		requests += res.Inst.TotalRequests()
		if c := res.Inst.MaxCostSeen(); c > maxCost {
			maxCost = c
		}
		// The wire responses of the load are held to these same sessions
		// by the gate, so this is what a client of pcd is told.
		want := wl.want[i%len(diagJobs)]
		t, ok := harness.TimeToFraction(res.FoundTimes(want), want, 1.0)
		if !ok {
			t = res.EndTime // never reported the full base set
		}
		vtime += t
		return nil
	})
	if err != nil {
		return err
	}
	m["harness.session_us_p50"] = median(sessionUS)
	m["sim.run_us_p50"] = median(simUS)
	m["consultant.search_us_p50"] = median(searchUS)
	if simSeconds > 0 {
		m["sim.events_per_s"] = events / simSeconds
	}
	m["consultant.tested_pairs"] = float64(pairs)
	m["consultant.stall_events"] = float64(stalls)
	m["dyninst.requests"] = float64(requests)
	m["dyninst.max_cost"] = maxCost
	m["consultant.vtime_to_all_s"] = vtime / float64(n)
	xs, err := timeEach(len(w.corp.recs), func(i int) error {
		core.Harvest(w.corp.recs[i], diagHarvest)
		return nil
	})
	m["core.harvest_us_p50"] = median(xs)
	return err
}

// ingestLayers feeds the stream inputs to an ingest.Engine offline: the
// ceiling for samples/s, and the cost of the finalize that re-runs the
// batch path. The step counts are those of every stream the load draws
// from, which each op of the load was held to.
func ingestLayers(wl *streamWorkload, w *world, m map[string]float64) error {
	var feedUS, finalizeUS, buildUS []float64
	var samples int
	var feedSeconds float64
	for _, name := range streamApps {
		for _, st := range w.streams[name] {
			eng, err := wl.offlineEngine(st, func(d time.Duration) {
				feedUS = append(feedUS, float64(d)/1e3)
				feedSeconds += d.Seconds()
			})
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, _, err := eng.Finalize(streamMaxTime); err != nil {
				return err
			}
			finalizeUS = append(finalizeUS, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			if _, err := batchDiagnose(st, "layer"); err != nil {
				return err
			}
			buildUS = append(buildUS, float64(time.Since(t0))/1e3)
			samples += len(st.Samples)
		}
	}
	m["ingest.feed_us_per_batch_p50"] = median(feedUS)
	m["ingest.finalize_us_p50"] = median(finalizeUS)
	m["postmortem.build_record_us_p50"] = median(buildUS)
	m["ingest.engine_samples_per_s"] = float64(samples) / feedSeconds

	var steps, streams, watch, watched int
	for _, name := range streamApps {
		for _, e := range wl.expect[name] {
			steps += e.steps
			streams++
			if e.watchSteps > 0 {
				watch += e.watchSteps
				watched++
			}
		}
	}
	m["ingest.steps_per_stream"] = float64(steps) / float64(streams)
	if watched > 0 {
		m["ingest.steps_to_signature"] = float64(watch) / float64(watched)
	}
	return nil
}

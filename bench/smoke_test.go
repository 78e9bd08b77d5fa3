package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// BENCHMARK.json and the tables in metrics.go and workloads.go must say
// the same thing, within the limits the driver's contract sets.
func TestManifestMatchesTheCode(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	wls := allWorkloads()
	if len(m.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(wls))
	}
	for i, wl := range wls {
		if m.Workloads[i].Name != wl.Name() || m.Workloads[i].Why != wl.Why() {
			t.Errorf("workload %d: manifest %q / %q, code %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, wl.Name(), wl.Why())
		}
		if len(wl.Why()) > 200 || !name.MatchString(wl.Name()) {
			t.Errorf("workload %q: name or why outside the contract's limits", wl.Name())
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(m.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 || !name.MatchString(e.Name) || !unit.MatchString(e.Unit) || seen[e.Name] {
			t.Errorf("end-to-end metric %q outside the contract's limits", e.Name)
		}
		seen[e.Name] = true
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s (s, lower) among the end-to-end metrics")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code (at most 128)", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, e, d)
		}
		if !name.MatchString(e.Name) || !unit.MatchString(e.Unit) || seen[e.Name] {
			t.Errorf("per-layer metric %q outside the contract's limits", e.Name)
		}
		seen[e.Name] = true
		for _, w := range d.On {
			if workloadByName(w) == nil {
				t.Errorf("per-layer metric %q is declared on unknown workload %q", d.Name, w)
			}
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// A one-second-per-phase run of every workload both ways: every metric
// BENCHMARK.json names must come out, non-zero wherever it is declared
// on the workload (end-to-end metrics: everywhere), with the gate green.
func TestSmokeEveryMetricOnEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pcd and runs the whole matrix for a second each")
	}
	m := readManifest(t)
	work := t.TempDir()
	pcd := filepath.Join(work, "pcd")
	if out, err := exec.Command("go", "build", "-o", pcd, "repro/cmd/pcd").CombinedOutput(); err != nil {
		t.Fatalf("go build repro/cmd/pcd: %v\n%s", err, out)
	}
	// Counters whose healthy value is zero, and numbers that can
	// honestly read zero in one second.
	mayBeZero := map[string]bool{
		"client.retries": true, "client.breaker_opens": true, "server.rejects_503": true,
		"replica.async_writes": true, "replica.gate_timeouts": true, "replica.fencing_rejects": true,
		"replica.elections": true, "replica.lag_seq_max": true, "replica.catchup_s": true,
		"history.fsck_severity": true, "ingest.rejected_full": true, "ingest.dup_batches": true,
		"consultant.stall_events": true, "bench.trace_overhead_pct": true,
		"core.harvest_cache_hit_ratio": true, "server.in_flight_max": true,
		"client.get_run_us_p50": true, "client.put_runs_us_p50": true, "server.get_self_us_p50": true,
	}
	for _, wl := range allWorkloads() {
		name := wl.Name()
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{
				work: t.TempDir(), pcdBin: pcd, seed: 1, seconds: 1,
				clients:  loadClients,
				traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
			}
			e2e, err := runEndToEnd(cfg, workloadByName(name))
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.correct || e2e.failed != 0 || e2e.attempted < 1 {
				t.Fatalf("end to end: correct=%v attempted=%d failed=%d errs=%v", e2e.correct, e2e.attempted, e2e.failed, e2e.errs)
			}
			for _, d := range m.EndToEnd {
				if v, ok := e2e.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v); it must never be 0", d.Name, v, ok)
				}
			}
			traced, err := runTraced(cfg, workloadByName(name))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.correct || traced.failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d errs=%v", traced.correct, traced.failed, traced.errs)
			}
			for i, d := range m.PerLayer {
				v, ok := traced.metrics[d.Name]
				if !ok {
					t.Errorf("per-layer metric %s is missing", d.Name)
					continue
				}
				if perLayer[i].On != nil && perLayer[i].on(name) && v == 0 && !mayBeZero[d.Name] {
					t.Errorf("per-layer metric %s is declared on %s and reads 0", d.Name, name)
				}
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written to -trace-out: %v", err)
			}
		})
	}
}

// The counts reported as exact are taken over fixed sets and never
// against a clock, so two passes over the same seed agree to the last
// digit however fast either ran.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus sessions, the stream simulations and both direct-call passes twice")
	}
	corp, err := buildCorpus(func() {})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := buildStreams(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{seed: 1, corp: corp, streams: streams}
	var passes [2]map[string]float64
	for i := range passes {
		m := map[string]float64{}
		dw, sw := &diagnoseWorkload{}, &streamWorkload{}
		if err := dw.Prepare(w); err != nil {
			t.Fatal(err)
		}
		if err := searchLayers(dw, w, m); err != nil {
			t.Fatal(err)
		}
		if err := sw.Prepare(w); err != nil {
			t.Fatal(err)
		}
		if err := ingestLayers(sw, w, m); err != nil {
			t.Fatal(err)
		}
		passes[i] = m
	}
	for _, name := range []string{
		"consultant.tested_pairs", "consultant.stall_events", "consultant.vtime_to_all_s",
		"dyninst.requests", "dyninst.max_cost", "ingest.steps_per_stream", "ingest.steps_to_signature",
	} {
		a, ok := passes[0][name]
		if b := passes[1][name]; !ok || a != b {
			t.Errorf("%s read %v, then %v (present %v); it is reported as exact", name, a, passes[1][name], ok)
		}
	}
}

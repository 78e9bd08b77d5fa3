package ingest_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ingest"
)

// TestDiagnosisPinned holds what a trace diagnosis decides — batch,
// streamed and live — to digests committed in testdata/diagnosis.golden.
// TestRecordBytesPinned covers online sessions only, the equivalence
// tests compare two paths of the same build, and the benchmark's gate
// regenerates its reference with the build under test; none of them
// notices the postmortem search or the live search changing together.
//
// record/… lines: for every buildable app/version at simulator seeds 1
// and 11, 20 virtual seconds, the SHA-256 of history.EncodeRecord of the
// batch diagnosis, and of Engine.Finalize after a 64-sample feed
// directed by everything harvested from that batch diagnosis.
//
// live/… lines: the SHA-256 of the complete live search transcript —
// after every batch, "steps true watch" and then every pair ever queued,
// in creation order, as "key priority state" — undirected and under
// three harvests, at three budgets and two batch sizes, plus one
// shuffled arrival order of each. Under -short only seed 11 runs.

const pinMaxTime = 20.0

var pinApps = []struct{ app, version string }{
	{"poisson", "A"}, {"poisson", "B"}, {"poisson", "C"}, {"poisson", "D"},
	{"ocean", ""}, {"tester", ""}, {"seismic", ""}, {"mw", ""}, {"pipeline", ""},
}

var pinHarvests = []struct {
	name string
	opt  *core.HarvestOptions
}{
	{"undirected", nil},
	{"priorities", &core.HarvestOptions{Priorities: true}},
	{"priorities+all-prunes", &core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}},
	{"harvest-all", &core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true, Thresholds: true}},
}

// liveTranscript feeds samples to a fresh engine, batch at a time, and
// returns the digest of its live state after every batch.
func liveTranscript(t *testing.T, appName string, samples []ingest.Sample, ds *core.DirectiveSet, budget, batch int) string {
	t.Helper()
	var watch []ingest.Watch
	if appName == "mw" || appName == "pipeline" {
		watch = signatureWatch(t, appName)
	}
	eng := ingest.NewEngine(appName, "", "live", ingest.EngineOptions{Directives: ds, EvalBudget: budget, Watch: watch})
	h := sha256.New()
	w := bufio.NewWriter(h)
	for i := 0; i < len(samples); i += batch {
		if err := eng.Feed(samples[i:min(i+batch, len(samples))]); err != nil {
			t.Fatal(err)
		}
		ingest.WriteLiveState(w, eng)
	}
	w.Flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestDiagnosisPinned(t *testing.T) {
	seeds := []int64{1, 11}
	if testing.Short() {
		seeds = seeds[1:]
	}
	var got []string
	pin := func(digest, format string, args ...any) {
		got = append(got, digest+"  "+fmt.Sprintf(format, args...))
	}
	for _, seed := range seeds {
		for _, p := range pinApps {
			name := p.app
			if p.version != "" {
				name += "-" + p.version
			}
			samples := collectVersion(t, p.app, p.version, seed, pinMaxTime)
			batch := batchDiagnose(t, p.app, "r0", samples, pinMaxTime)
			pin(fmt.Sprintf("%x", sha256.Sum256(history.EncodeRecord(batch))), "record/%s/seed%d/batch", name, seed)

			eng := ingest.NewEngine(p.app, "", "r0", ingest.EngineOptions{Directives: core.Harvest(batch, core.HarvestAll())})
			for i := 0; i < len(samples); i += 64 {
				if err := eng.Feed(samples[i:min(i+64, len(samples))]); err != nil {
					t.Fatal(err)
				}
			}
			streamed, _, err := eng.Finalize(pinMaxTime)
			if err != nil {
				t.Fatal(err)
			}
			pin(fmt.Sprintf("%x", sha256.Sum256(history.EncodeRecord(streamed))), "record/%s/seed%d/streamed", name, seed)

			if p.app == "poisson" {
				continue
			}
			shuffled := make([]ingest.Sample, len(samples))
			for i, j := range rand.New(rand.NewSource(seed)).Perm(len(samples)) {
				shuffled[i] = samples[j]
			}
			for _, hv := range pinHarvests {
				var ds *core.DirectiveSet
				if hv.opt != nil {
					ds = core.Harvest(batch, *hv.opt)
				}
				for _, budget := range []int{5, 24, 256} {
					for _, size := range []int{7, 64} {
						pin(liveTranscript(t, p.app, samples, ds, budget, size),
							"live/%s/seed%d/%s/budget%d/batch%d", name, seed, hv.name, budget, size)
					}
				}
				pin(liveTranscript(t, p.app, shuffled, ds, 24, 64), "live/%s/seed%d/%s/budget24/batch64/shuffled", name, seed, hv.name)
			}
		}
	}

	data, err := os.ReadFile(filepath.Join("testdata", "diagnosis.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if testing.Short() {
		var kept []string
		for _, line := range want {
			if strings.Contains(line, "/seed11/") {
				kept = append(kept, line)
			}
		}
		want = kept
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests here, %d in testdata/diagnosis.golden; this build produces:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("this build produces\n%s\ntestdata/diagnosis.golden holds\n%s", got[i], want[i])
		}
	}
}

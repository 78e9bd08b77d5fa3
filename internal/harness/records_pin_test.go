package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
)

// The benchmark's correctness gate regenerates its reference records
// with the same build's RunSession, so a change that shifts every
// session consistently passes it. This test holds the record bytes to
// digests committed in testdata/records.sha256: the nine buildable
// app/versions diagnosed undirected at seed 1, and the six tuning steps
// bench/workloads.go rotates through, each directed by "Priorities &
// All Prunes" harvested from the stored base run and carried as
// directive text, as the diagnose request carries it. A record is
// encoded as the store's putMutation encodes it.

type pinApp struct{ app, version string }

func (p pinApp) String() string {
	if p.version == "" {
		return p.app
	}
	return p.app + "-" + p.version
}

var pinCorpus = []pinApp{
	{"poisson", "A"}, {"poisson", "B"}, {"poisson", "C"}, {"poisson", "D"},
	{"ocean", ""}, {"tester", ""}, {"seismic", ""}, {"mw", ""}, {"pipeline", ""},
}

var pinDirected = []struct{ src, dst pinApp }{
	{pinApp{"poisson", "A"}, pinApp{"poisson", "A"}},
	{pinApp{"poisson", "A"}, pinApp{"poisson", "B"}},
	{pinApp{"poisson", "B"}, pinApp{"poisson", "C"}},
	{pinApp{"poisson", "C"}, pinApp{"poisson", "D"}},
	{pinApp{"mw", ""}, pinApp{"mw", ""}},
	{pinApp{"pipeline", ""}, pinApp{"pipeline", ""}},
}

func pinSession(t *testing.T, p pinApp, runID string, ds *core.DirectiveSet) *SessionResult {
	t.Helper()
	a, err := app.Build(p.app, p.version, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSessionConfig()
	cfg.RunID = runID
	cfg.Sim.Seed = 1
	cfg.Directives = ds
	res, err := RunSession(a, cfg)
	if err != nil {
		t.Fatalf("%s %s: %v", p, runID, err)
	}
	return res
}

func TestRecordBytesPinned(t *testing.T) {
	env := NewEnv(nil)
	var got strings.Builder
	digest := func(name string, res *SessionResult) {
		data, err := json.MarshalIndent(res.Record, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), name)
	}
	for _, p := range pinCorpus {
		res := pinSession(t, p, "base", nil)
		if _, err := env.SaveResult(res); err != nil {
			t.Fatal(err)
		}
		digest("base/"+p.String(), res)
	}
	opt := core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}
	for _, j := range pinDirected {
		mapTo := ""
		if j.src != j.dst {
			mapTo = j.dst.version + ":base"
		}
		ds, _, err := env.HarvestRuns(j.src.app, []string{j.src.version + ":base"}, opt, "", mapTo)
		if err != nil {
			t.Fatal(err)
		}
		ds, err = core.ParseDirectives(strings.NewReader(core.FormatDirectives(ds)))
		if err != nil {
			t.Fatal(err)
		}
		digest("directed/"+j.src.String()+"->"+j.dst.String(), pinSession(t, j.dst, "directed", ds))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "records.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("record bytes differ from testdata/records.sha256; this build produces:\n%s", got.String())
	}
}

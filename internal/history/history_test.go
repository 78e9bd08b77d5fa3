package history

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

func sampleRecord(runID string) *RunRecord {
	return &RunRecord{
		App: "poisson", Version: "A", RunID: runID, Duration: 100,
		Resources: map[string][]string{
			"Code":    {"/Code", "/Code/oned.f", "/Code/oned.f/main"},
			"Machine": {"/Machine", "/Machine/sp01"},
			"Process": {"/Process", "/Process/p1"},
		},
		ProcNodes: map[string]string{"p1": "sp01"},
		Results: []NodeResult{
			{Hyp: "ExcessiveSyncWaitingTime", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "true", Value: 0.5, Threshold: 0.2, ConcludedAt: 5, Priority: "medium"},
			{Hyp: "CPUbound", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "false", Value: 0.1, Threshold: 0.3, ConcludedAt: 5, Priority: "medium"},
		},
		Usage:       map[string]float64{"/Code/oned.f": 0.4},
		PairsTested: 2,
		TrueCount:   1,
	}
}

func TestRecordValidate(t *testing.T) {
	if err := sampleRecord("r1").Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := sampleRecord("r1")
	bad.App = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing app accepted")
	}
	bad = sampleRecord("r1")
	bad.RunID = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing run id accepted")
	}
	bad = sampleRecord("r1")
	bad.Results[0].State = "maybe"
	if err := bad.Validate(); err == nil {
		t.Error("bad state accepted")
	}
	bad = sampleRecord("r1")
	bad.TrueCount = 7
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent TrueCount accepted")
	}
}

func TestTrueAndFalseResults(t *testing.T) {
	rec := sampleRecord("r1")
	trues := rec.TrueResults()
	if len(trues) != 1 || trues[0].Hyp != "ExcessiveSyncWaitingTime" {
		t.Errorf("TrueResults = %+v", trues)
	}
	falses := rec.FalseResults()
	if len(falses) != 1 || falses[0].Hyp != "CPUbound" {
		t.Errorf("FalseResults = %+v", falses)
	}
}

func TestTrueResultsOrderedByTime(t *testing.T) {
	rec := sampleRecord("r1")
	rec.Results = append(rec.Results,
		NodeResult{Hyp: "H", Focus: "<a>", State: "true", ConcludedAt: 1},
		NodeResult{Hyp: "H", Focus: "<b>", State: "true", ConcludedAt: 3},
	)
	rec.TrueCount = 3
	trues := rec.TrueResults()
	for i := 1; i < len(trues); i++ {
		if trues[i-1].ConcludedAt > trues[i].ConcludedAt {
			t.Fatalf("not ordered: %+v", trues)
		}
	}
}

func TestMachineRedundant(t *testing.T) {
	rec := sampleRecord("r1")
	if !rec.MachineRedundant() {
		t.Error("one-to-one map not detected")
	}
	rec.ProcNodes["p2"] = "sp01"
	if rec.MachineRedundant() {
		t.Error("shared node reported redundant")
	}
	rec.ProcNodes = nil
	if rec.MachineRedundant() {
		t.Error("empty map reported redundant")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord("r1")
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("poisson", "A", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.App != rec.App || got.TrueCount != rec.TrueCount || len(got.Results) != len(rec.Results) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Usage["/Code/oned.f"] != 0.4 {
		t.Error("usage lost")
	}
	if got.ProcNodes["p1"] != "sp01" {
		t.Error("proc nodes lost")
	}
}

func TestStoreRejectsInvalidRecords(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	bad := sampleRecord("r1")
	bad.TrueCount = 99
	if err := st.Save(bad); err == nil {
		t.Error("invalid record saved")
	}
}

func TestStoreListAndLoadAll(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	for _, id := range []string{"r1", "r2"} {
		if err := st.Save(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	other := sampleRecord("r1")
	other.Version = "B"
	if err := st.Save(other); err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("List = %v", names)
	}
	recs, err := st.LoadAll("poisson", "A")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("LoadAll(A) = %d", len(recs))
	}
	all, err := st.LoadAll("poisson", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("LoadAll(any) = %d", len(all))
	}
	none, err := st.LoadAll("ocean", "")
	if err != nil || len(none) != 0 {
		t.Errorf("LoadAll(ocean) = %d, %v", len(none), err)
	}
}

func TestStoreLoadMissing(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	if _, err := st.Load("poisson", "A", "ghost"); err == nil {
		t.Error("loading a missing record succeeded")
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Error("empty dir accepted")
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	if _, err := NewStore(nested); err != nil {
		t.Errorf("nested store creation failed: %v", err)
	}
}

func TestUsageCollector(t *testing.T) {
	u := NewUsageCollector(2)
	u.OnInterval(sim.Interval{Process: "p1", Node: "sp01", Module: "oned.f", Function: "main",
		Kind: sim.KindCPU, Start: 0, End: 4})
	u.OnInterval(sim.Interval{Process: "p2", Node: "sp02", Module: "oned.f", Function: "main",
		Tag: "tag_3_0", Kind: sim.KindSyncWait, Start: 0, End: 2})
	fr := u.Fractions(4) // denom = 4s x 2 procs = 8
	if got := fr["/Code/oned.f"]; got != 6.0/8 {
		t.Errorf("module fraction = %v", got)
	}
	if got := fr["/Code/oned.f/main"]; got != 6.0/8 {
		t.Errorf("function fraction = %v", got)
	}
	if got := fr["/Process/p1"]; got != 4.0/8 {
		t.Errorf("process fraction = %v", got)
	}
	if got := fr["/Machine/sp02"]; got != 2.0/8 {
		t.Errorf("machine fraction = %v", got)
	}
	if got := fr["/SyncObject/Message/tag_3_0"]; got != 2.0/8 {
		t.Errorf("tag fraction = %v", got)
	}
	if got := fr["/SyncObject/Message"]; got != 2.0/8 {
		t.Errorf("message fraction = %v", got)
	}
	secs := u.Seconds()
	if secs["/Code/oned.f"] != 6 {
		t.Errorf("seconds = %v", secs["/Code/oned.f"])
	}
	// Zero-duration and zero-elapsed edge cases.
	u.OnInterval(sim.Interval{Process: "p1", Node: "sp01", Kind: sim.KindCPU, Start: 1, End: 1})
	if len(NewUsageCollector(2).Fractions(0)) != 0 {
		t.Error("zero elapsed should yield empty fractions")
	}
}

func TestStoreDir(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	if st.Dir() != dir {
		t.Errorf("Dir = %q", st.Dir())
	}
}

func TestScanSkipsAndReportsCorruptRecords(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	if err := st.Save(sampleRecord("ok")); err != nil {
		t.Fatal(err)
	}
	// Inject a corrupted file and an invalid-but-parseable record
	// alongside it, then re-scan.
	if err := os.WriteFile(filepath.Join(st.Dir(), "poisson-A-bad.json"), []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "poisson-A-worse.json"),
		[]byte(`{"app":"poisson","version":"A","run_id":"worse","true_count":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	// The scan skips the two bad files, reports them, and keeps serving
	// the intact record.
	issues := st.ScanIssues()
	if len(issues) != 2 {
		t.Fatalf("ScanIssues = %v, want 2 entries", issues)
	}
	for _, is := range issues {
		if is.Name != "poisson-A-bad.json" && is.Name != "poisson-A-worse.json" {
			t.Errorf("unexpected issue %v", is)
		}
		if is.Err == nil || is.String() == "" {
			t.Errorf("issue %v missing cause", is)
		}
	}
	recs, err := st.LoadAll("poisson", "A")
	if err != nil || len(recs) != 1 || recs[0].RunID != "ok" {
		t.Errorf("LoadAll = %d recs, %v; want the one intact record", len(recs), err)
	}
	names, err := st.List()
	if err != nil || len(names) != 1 {
		t.Errorf("List = %v, %v; want the one intact record", names, err)
	}
	hits, err := st.Query("poisson", "A", ResultFilter{})
	if err != nil || len(hits) == 0 {
		t.Errorf("Query over a store with corrupt files = %v, %v", hits, err)
	}
}

func TestStoreDelete(t *testing.T) {
	st, _ := NewStore(t.TempDir())
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("poisson", "A", "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("poisson", "A", "r1"); err == nil {
		t.Error("deleted record still loads")
	}
	if st.Len() != 0 {
		t.Errorf("Len = %d after delete", st.Len())
	}
	if err := st.Delete("poisson", "A", "r1"); err == nil {
		t.Error("deleting a missing record succeeded")
	}
}

func TestStoreLoadBehindIndex(t *testing.T) {
	// A record written by another store instance (another process, in
	// real deployments) is found by Load without a Refresh.
	dir := t.TempDir()
	writer, _ := NewStore(dir)
	reader, _ := NewStore(dir)
	if err := writer.Save(sampleRecord("late")); err != nil {
		t.Fatal(err)
	}
	rec, err := reader.Load("poisson", "A", "late")
	if err != nil || rec.RunID != "late" {
		t.Fatalf("Load behind index = %v, %v", rec, err)
	}
}

func TestStoreDashAmbiguity(t *testing.T) {
	// Unescaped, app "a-b" run "c" and app "a" version "b" run "c" would
	// both map to a-b-c.json. The escaped scheme keeps them apart.
	st, _ := NewStore(t.TempDir())
	first := sampleRecord("c")
	first.App, first.Version = "a-b", ""
	second := sampleRecord("c")
	second.App, second.Version = "a", "b"
	if err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(second); err != nil {
		t.Fatal(err)
	}
	got1, err := st.Load("a-b", "", "c")
	if err != nil || got1.App != "a-b" || got1.Version != "" {
		t.Fatalf("Load(a-b,,c) = %+v, %v", got1, err)
	}
	got2, err := st.Load("a", "b", "c")
	if err != nil || got2.App != "a" || got2.Version != "b" {
		t.Fatalf("Load(a,b,c) = %+v, %v", got2, err)
	}
	// Both survive a fresh open.
	st2, err := NewStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("reopened store has %d records, want 2 (keys %v)", st2.Len(), st2.Keys())
	}
}

// TestStoreLegacyFileFallback is the naming migration: a store written
// by the pre-escaping code (raw app[-version]-runid.json names) opens,
// serves every record, and holds only canonical names afterwards — there
// is no read-time fallback, the recovery pass renames the files.
func TestStoreLegacyFileFallback(t *testing.T) {
	dir := t.TempDir()
	dashed := sampleRecord("with-dash") // poisson-A-with-dash.json
	versionless := sampleRecord("r1")   // poisson-r1.json
	versionless.Version = ""
	// The ambiguous legacy name: a-b-c.json is where both app "a-b" run
	// "c" and app "a" version "b" run "c" used to go. Here it holds the
	// former; the latter's canonical name is that very file name.
	ambiguous := sampleRecord("c")
	ambiguous.App, ambiguous.Version = "a-b", ""
	seed := map[string]*RunRecord{
		"poisson-A-with-dash.json": dashed,
		"poisson-r1.json":          versionless,
		"a-b-c.json":               ambiguous,
	}
	for name, rec := range seed {
		data, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Recovery().Renamed); got != len(seed) {
		t.Errorf("recovery renamed %d files, want %d: %+v", got, len(seed), st.Recovery().Renamed)
	}
	for _, rec := range seed {
		got, err := st.Load(rec.App, rec.Version, rec.RunID)
		if err != nil || got.Key() != rec.Key() {
			t.Errorf("load %s after migration = %+v, %v", rec.Key(), got, err)
		}
	}
	// The other half of the ambiguous pair now fits beside the first.
	twin := sampleRecord("c")
	twin.App, twin.Version = "a", "b"
	if err := st.Save(twin); err != nil {
		t.Fatal(err)
	}
	assertCanonicalNames := func() {
		t.Helper()
		want := map[string]bool{fileName(twin.Key()): true}
		for _, rec := range seed {
			want[fileName(rec.Key())] = true
		}
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if de.IsDir() {
				continue
			}
			if !want[de.Name()] {
				t.Errorf("non-canonical file %s left in the store", de.Name())
			}
			delete(want, de.Name())
		}
		for name := range want {
			t.Errorf("canonical file %s missing", name)
		}
	}
	assertCanonicalNames()
	// Deleting one of the pair leaves the other alone, and a reopen has
	// nothing left to migrate.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := st2.Recovery(); !rep.Empty() {
		t.Errorf("second open still found work: %+v", rep)
	}
	if st2.Len() != len(seed)+1 {
		t.Fatalf("reopened store has %d records, want %d (keys %v)", st2.Len(), len(seed)+1, st2.Keys())
	}
	assertCanonicalNames()
	if err := st2.Delete("a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if got, err := st2.Load("a-b", "", "c"); err != nil || got.App != "a-b" {
		t.Errorf("ambiguous twin lost to the other's delete: %+v, %v", got, err)
	}
}

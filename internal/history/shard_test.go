package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// shardSample builds a valid record distinguishable by its key and a
// per-run severity value.
func shardSample(app, version, runID string, val float64) *RunRecord {
	return &RunRecord{
		App: app, Version: version, RunID: runID, Duration: 100,
		Resources: map[string][]string{
			"Code":    {"/Code", "/Code/oned.f"},
			"Machine": {"/Machine", "/Machine/sp01"},
			"Process": {"/Process", "/Process/p1"},
		},
		ProcNodes: map[string]string{"p1": "sp01"},
		Results: []NodeResult{
			{Hyp: "ExcessiveSyncWaitingTime", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "true", Value: val, Threshold: 0.2, ConcludedAt: 5, Priority: "medium"},
			{Hyp: "CPUbound", Focus: "</Code,/Machine,/Process,/SyncObject>", State: "false", Value: 0.1, Threshold: 0.3, ConcludedAt: 5, Priority: "medium"},
		},
		PairsTested: 2,
		TrueCount:   1,
	}
}

// TestShardForKeyStable pins the routing function. These values are the
// on-disk placement contract: if any of them change, every existing
// sharded store's records are orphaned, so a failure here means the
// hash scheme changed and needs a new manifest scheme name plus a
// migration path — not a test update.
func TestShardForKeyStable(t *testing.T) {
	golden := []struct {
		app, version string
		n, want      int
	}{
		{"poisson", "A", 2, 0},
		{"poisson", "B", 2, 1},
		{"poisson", "A", 4, 3},
		{"poisson", "B", 4, 2},
		{"poisson", "C", 4, 2},
		{"poisson", "G", 4, 0},
		{"poisson", "H", 4, 1},
		{"tester", "", 4, 1},
		{"ocean", "", 4, 1},
	}
	for _, g := range golden {
		if got := ShardForKey(g.app, g.version, g.n); got != g.want {
			t.Errorf("ShardForKey(%q, %q, %d) = %d, want %d (routing changed: stored records would be orphaned)",
				g.app, g.version, g.n, got, g.want)
		}
	}
	if got := ShardForKey("anything", "x", 1); got != 0 {
		t.Errorf("single shard route = %d, want 0", got)
	}
	if got := ShardForKey("anything", "x", 0); got != 0 {
		t.Errorf("zero-shard route = %d, want 0", got)
	}
}

// TestShardForKeyJumpProperty proves the consistent-hash property the
// layout relies on: growing the ring from n to n+1 moves keys only onto
// the new shard, never between existing ones.
func TestShardForKeyJumpProperty(t *testing.T) {
	moved := 0
	for i := 0; i < 200; i++ {
		v := fmt.Sprintf("v%d", i)
		a, b := ShardForKey("app", v, 4), ShardForKey("app", v, 5)
		if a != b {
			if b != 4 {
				t.Fatalf("key app/%s moved %d -> %d growing 4 -> 5; only the new shard may gain keys", v, a, b)
			}
			moved++
		}
	}
	// Expect roughly 1/5 of the keys on the new shard.
	if moved < 20 || moved > 60 {
		t.Errorf("%d of 200 keys moved growing 4 -> 5, want around 40", moved)
	}
}

// shardedFixture saves the same record set into a plain store and a
// 4-shard store; versions A, B, G, H cover all four shards.
var fixtureVersions = []string{"A", "B", "C", "G", "H"}

func saveFixture(t *testing.T, st Storage) {
	t.Helper()
	for i, v := range fixtureVersions {
		for _, run := range []string{"run1", "run2"} {
			if err := st.Save(shardSample("poisson", v, run, 0.3+float64(i)/10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Save(shardSample("tester", "", "run1", 0.9)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSingleStore proves the byte-identity contract: a
// sharded store holding the same records as a single store answers
// List, Len, Keys, LoadAll, Query and PersistentBottlenecks with
// identical (JSON-identical) results, at -shards 1 and -shards 4 alike.
func TestShardedMatchesSingleStore(t *testing.T) {
	single, err := OpenStoreDurable(t.TempDir(), DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	saveFixture(t, single)

	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			sh, err := OpenSharded(dir, n, DurableOptions{Create: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			saveFixture(t, sh)

			if n == 4 {
				// The fixture must actually exercise the ring: every
				// shard directory holds at least one record file.
				for i := 0; i < n; i++ {
					des, err := os.ReadDir(filepath.Join(dir, ShardsDirName, shardDirName(i)))
					if err != nil {
						t.Fatal(err)
					}
					found := false
					for _, de := range des {
						if strings.HasSuffix(de.Name(), ".json") {
							found = true
						}
					}
					if !found {
						t.Errorf("shard %02d holds no records; fixture does not cover the ring", i)
					}
				}
			}

			if got, want := sh.Len(), single.Len(); got != want {
				t.Errorf("Len = %d, want %d", got, want)
			}
			if got, want := sh.Keys(), single.Keys(); !reflect.DeepEqual(got, want) {
				t.Errorf("Keys = %v, want %v", got, want)
			}
			gotList, _ := sh.List()
			wantList, _ := single.List()
			if !reflect.DeepEqual(gotList, wantList) {
				t.Errorf("List = %v, want %v", gotList, wantList)
			}

			for _, version := range []string{"", "B"} {
				gotRecs, err := sh.LoadAll("poisson", version)
				if err != nil {
					t.Fatal(err)
				}
				wantRecs, err := single.LoadAll("poisson", version)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(asJSON(t, gotRecs), asJSON(t, wantRecs)) {
					t.Errorf("LoadAll(poisson, %q) diverges from the single store", version)
				}

				f := ResultFilter{State: "true", MinValue: 0.2}
				gotHits, err := sh.Query("poisson", version, f)
				if err != nil {
					t.Fatal(err)
				}
				wantHits, err := single.Query("poisson", version, f)
				if err != nil {
					t.Fatal(err)
				}
				if asJSON(t, gotHits) != asJSON(t, wantHits) {
					t.Errorf("Query(poisson, %q) diverges:\n got %s\nwant %s",
						version, asJSON(t, gotHits), asJSON(t, wantHits))
				}

				gotPers, err := sh.PersistentBottlenecks("poisson", version, 2)
				if err != nil {
					t.Fatal(err)
				}
				wantPers, err := single.PersistentBottlenecks("poisson", version, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotPers, wantPers) {
					t.Errorf("PersistentBottlenecks(poisson, %q) = %v, want %v", version, gotPers, wantPers)
				}
			}

			rec, err := sh.Load("tester", "", "run1")
			if err != nil || rec.App != "tester" {
				t.Errorf("Load(tester) = %v, %v", rec, err)
			}
		})
	}
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestOpenStoreAutoDetectsLayout proves the shared open path: -shards N
// creates the sharded layout, a later open with no shard count detects
// it from disk, a mismatched count is refused, and a plain directory
// still opens as a single store.
func TestOpenStoreAutoDetectsLayout(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreAuto(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(shardSample("poisson", "A", "run1", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !IsShardedLayout(dir) {
		t.Fatal("creating with shards=4 did not leave a sharded layout")
	}

	st2, err := OpenStoreAuto(dir, 0, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sh, ok := st2.(*ShardedStore)
	if !ok {
		t.Fatalf("auto-open returned %T, want *ShardedStore", st2)
	}
	if sh.Shards() != 4 {
		t.Errorf("manifest shard count = %d, want 4", sh.Shards())
	}
	if _, err := st2.Load("poisson", "A", "run1"); err != nil {
		t.Errorf("record lost across reopen: %v", err)
	}

	// A mismatched -shards must refuse, not silently reshard.
	if _, err := OpenStoreAuto(dir, 2, DurableOptions{}); err == nil {
		t.Error("open with mismatched shard count succeeded; records would be orphaned")
	}

	// Plain directories keep opening as single stores.
	plain := t.TempDir()
	st3, err := OpenStoreAuto(plain, 0, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, ok := st3.(*Store); !ok {
		t.Errorf("plain dir opened as %T, want *Store", st3)
	}

	// A sharded open of a non-sharded dir without Create is an error.
	if _, err := OpenSharded(t.TempDir(), 0, DurableOptions{}); err == nil {
		t.Error("OpenSharded of an empty dir without Create succeeded")
	}

	if _, err := OpenSharded(t.TempDir(), 100, DurableOptions{Create: true}); err == nil {
		t.Error("100 shards accepted; the layout's naming caps at 99")
	}
}

// TestShardedDegradationAndRevival walks the shard degradation ladder
// under the injector: consecutive disk failures trip one shard's breaker,
// point operations on its keyspace fail fast as transient backend errors
// without touching the disk, scatter reads answer from the surviving
// shards, and after the fault heals a Ping re-admits the shard.
func TestShardedDegradationAndRevival(t *testing.T) {
	faults := make([]*Faults, 4)
	for i := range faults {
		faults[i] = NewFaults(FaultConfig{Seed: int64(i)})
	}
	sh, err := OpenSharded(t.TempDir(), 4, DurableOptions{
		Create:                true,
		WAL:                   true,
		WALOptions:            WALOptions{Sync: SyncNone},
		ShardBreakerThreshold: 2,
		Faults:                func(shard int) *Faults { return faults[shard] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	saveFixture(t, sh)

	// Version B lives on shard 2 (pinned by TestShardForKeyStable);
	// versions A, G, H live elsewhere.
	down := ShardForKey("poisson", "B", 4)
	fullLen := sh.Len()

	faults[down].SetConfig(FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		if err := sh.Save(shardSample("poisson", "B", "run9", 0.5)); err == nil {
			t.Fatalf("save %d through a failing backend succeeded", i)
		}
	}
	stats := sh.ShardStats()
	if !stats[down].Degraded {
		t.Fatalf("shard %d not degraded after %d consecutive failures: %+v", down, 2, stats)
	}

	// Down shard: point ops fail fast with a transient backend error,
	// without touching the backend.
	opsBefore := faults[down].Counters().Ops
	err = sh.Save(shardSample("poisson", "B", "run9", 0.5))
	if err == nil || !IsBackendError(err) || !IsTransient(err) {
		t.Fatalf("save to down shard: err = %v, want transient backend error", err)
	}
	if _, err := sh.Load("poisson", "B", "run1"); err == nil || !IsTransient(err) {
		t.Fatalf("load from down shard: err = %v, want transient backend error", err)
	}
	if ops := faults[down].Counters().Ops; ops != opsBefore {
		t.Errorf("down shard backend touched: %d ops -> %d", opsBefore, ops)
	}

	// Scatter reads skip the down shard but keep serving the rest.
	if got := sh.Len(); got >= fullLen || got == 0 {
		t.Errorf("degraded Len = %d, want 0 < n < %d (down shard's records absent)", got, fullLen)
	}
	hits, err := sh.Query("poisson", "", ResultFilter{State: "true"})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Version == "B" {
			t.Errorf("query returned version B from a down shard: %+v", h)
		}
	}
	if len(hits) == 0 {
		t.Error("query returned nothing; surviving shards should answer")
	}

	// One dead shard must not fail the whole store's health probe.
	if err := sh.Ping(); err != nil {
		t.Errorf("Ping with one down shard = %v, want nil (others serve)", err)
	}
	if !sh.ShardStats()[down].Degraded {
		t.Fatal("failed probe revived the shard")
	}

	// The fault heals; the next probe re-admits the shard.
	faults[down].SetConfig(FaultConfig{})
	if err := sh.Ping(); err != nil {
		t.Fatal(err)
	}
	if sh.ShardStats()[down].Degraded {
		t.Fatal("shard still degraded after a healthy probe")
	}
	if err := sh.Save(shardSample("poisson", "B", "run9", 0.5)); err != nil {
		t.Errorf("save after revival: %v", err)
	}
	if got := sh.Len(); got != fullLen+1 {
		t.Errorf("healed Len = %d, want %d", got, fullLen+1)
	}
}

// TestShardedOpenFailureDegrades proves a shard that cannot open leaves
// the store serving: its failure lands in the recovery report, its
// keyspace degrades to absent, and a Ping after the directory returns
// reopens it in place.
func TestShardedOpenFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	saveFixture(t, sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	down := ShardForKey("poisson", "B", 4)
	sdir := filepath.Join(dir, ShardsDirName, shardDirName(down))
	if err := os.Rename(sdir, sdir+".off"); err != nil {
		t.Fatal(err)
	}

	sh2, err := OpenSharded(dir, 0, DurableOptions{})
	if err != nil {
		t.Fatalf("one missing shard failed the whole open: %v", err)
	}
	defer sh2.Close()
	rep := sh2.Recovery()
	if rep.Empty() {
		t.Error("recovery report empty despite a shard that failed to open")
	}
	var reported bool
	for _, sr := range rep.Shards {
		if sr.Shard == down && sr.Err != "" {
			reported = true
		}
	}
	if !reported {
		t.Errorf("shard %d open failure not in recovery report: %+v", down, rep.Shards)
	}
	if !sh2.ShardStats()[down].Degraded {
		t.Error("unopenable shard not marked degraded")
	}
	if _, err := sh2.Load("poisson", "B", "run1"); err == nil || !IsTransient(err) {
		t.Fatalf("load from unopened shard: err = %v, want transient backend error", err)
	}

	// The directory comes back; a probe reopens the shard in place.
	if err := os.Rename(sdir+".off", sdir); err != nil {
		t.Fatal(err)
	}
	if err := sh2.Ping(); err != nil {
		t.Fatal(err)
	}
	if sh2.ShardStats()[down].Degraded {
		t.Fatal("shard still degraded after its directory returned")
	}
	if _, err := sh2.Load("poisson", "B", "run1"); err != nil {
		t.Errorf("load after reopen: %v", err)
	}

	// All shards gone is a configuration error worth dying for.
	for i := 0; i < 4; i++ {
		d := filepath.Join(dir, ShardsDirName, shardDirName(i))
		if err := os.Rename(d, d+".off"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenSharded(dir, 0, DurableOptions{}); err == nil {
		t.Error("open with every shard missing succeeded")
	}
}

// TestFsckShardedCleanAndMisplaced proves the sharded fsck contract: a
// healthy store grades clean with per-shard sections, a record sitting
// on the wrong shard grades as residue (exit 1) with a misplaced count,
// and -repair moves it home.
func TestFsckShardedCleanAndMisplaced(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	saveFixture(t, sh)
	total := sh.Len()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sharded || rep.ShardCount != 4 {
		t.Fatalf("report sharded=%v count=%d, want sharded 4", rep.Sharded, rep.ShardCount)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("clean sharded store graded %d: %+v", rep.Severity(), rep.Findings)
	}
	if rep.Records != total {
		t.Errorf("fsck counted %d records, store held %d", rep.Records, total)
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("per-shard sections = %d, want 4", len(rep.Shards))
	}

	// Deliberately misplace one record: move poisson-B-run1 from its
	// home shard onto another shard.
	key := RecordKey{App: "poisson", Version: "B", RunID: "run1"}
	home := ShardForKey(key.App, key.Version, 4)
	wrong := (home + 1) % 4
	name := fileName(key)
	if err := os.Rename(
		filepath.Join(dir, ShardsDirName, shardDirName(home), name),
		filepath.Join(dir, ShardsDirName, shardDirName(wrong), name),
	); err != nil {
		t.Fatal(err)
	}

	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("misplaced record graded %d, want residue (%d)", rep.Severity(), FsckResidue)
	}
	if rep.Misplaced != 1 {
		t.Errorf("misplaced count = %d, want 1", rep.Misplaced)
	}
	var finding *FsckFinding
	for _, sr := range rep.Shards {
		for i := range sr.Findings {
			if sr.Shard == wrong && sr.Findings[i].Path == name {
				finding = &sr.Findings[i]
			}
		}
	}
	if finding == nil {
		t.Fatalf("no placement finding on shard %02d: %+v", wrong, rep.Shards)
	}
	if !strings.Contains(finding.Problem, "hashes to shard "+shardDirName(home)) {
		t.Errorf("finding problem = %q, want the home shard named", finding.Problem)
	}

	// Repair moves it home; the store then grades clean and serves the
	// record again.
	rep, err = FsckStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misplaced != 1 {
		t.Errorf("repair pass misplaced count = %d, want 1 (reflects what was found)", rep.Misplaced)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store not clean after repair: %+v", rep.Findings)
	}
	sh2, err := OpenSharded(dir, 0, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if _, err := sh2.Load(key.App, key.Version, key.RunID); err != nil {
		t.Errorf("repaired record unreachable: %v", err)
	}
}

// TestFsckShardedMigratesRootRecords proves the documented migration
// path: records of a legacy single store left at the root of a sharded
// layout grade as residue, and -repair distributes them onto the ring.
func TestFsckShardedMigratesRootRecords(t *testing.T) {
	dir := t.TempDir()
	// The legacy store fills the directory first...
	old, err := OpenStoreDurable(dir, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	saveFixture(t, old)
	total := old.Len()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	// ...then the sharded layout is created over it.
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckResidue {
		t.Fatalf("root records graded %d, want residue", rep.Severity())
	}

	if _, err := FsckStore(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckClean {
		t.Fatalf("store not clean after migration: %+v", rep.Findings)
	}
	if rep.Records != total {
		t.Errorf("migrated %d records, want %d", rep.Records, total)
	}

	sh2, err := OpenSharded(dir, 0, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if got := sh2.Len(); got != total {
		t.Errorf("sharded store serves %d records after migration, want %d", got, total)
	}
	for _, v := range fixtureVersions {
		if _, err := sh2.Load("poisson", v, "run1"); err != nil {
			t.Errorf("migrated record poisson/%s/run1 unreachable: %v", v, err)
		}
	}
}

// TestFsckShardedLayoutDamage proves manifest loss and a missing shard
// directory grade as corruption (exit 2).
func TestFsckShardedLayoutDamage(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4, DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	saveFixture(t, sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	manifest := filepath.Join(dir, ShardsDirName, shardManifestName)
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckCorrupt {
		t.Errorf("missing manifest graded %d, want corrupt", rep.Severity())
	}
	if rep.ShardCount != 4 {
		t.Errorf("inferred shard count = %d, want 4 from the NN directories", rep.ShardCount)
	}

	// Restore the manifest, remove a shard directory.
	data, err := json.Marshal(shardManifest{Version: 1, Shards: 4, Hash: shardHashScheme})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, ShardsDirName, shardDirName(2))); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severity() != FsckCorrupt {
		t.Errorf("missing shard dir graded %d, want corrupt", rep.Severity())
	}
}

// FuzzParseShardManifest: any bytes either parse or are refused without
// a panic; an accepted manifest pins this build's hash scheme and at
// least one shard, and its re-encoding parses back to the same value.
func FuzzParseShardManifest(f *testing.F) {
	for _, s := range []string{
		`{"version":1,"shards":4,"hash":"fnv64a-jump"}`,
		`{"version":2,"shards":2,"hash":"fnv64a-jump","replicas":1}`,
		`{"version":1,"shards":0,"hash":"fnv64a-jump"}`,
		`{"version":1,"shards":4,"hash":"crc32-mod"}`,
		`{"SHARDS":3,"Hash":"fnv64a-jump","shards":1}`,
		`{"shards":4`, ``, `null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseShardManifest(data)
		if err != nil {
			return
		}
		if m.Hash != shardHashScheme || m.Shards < 1 {
			t.Fatalf("accepted %q as %+v", data, m)
		}
		again, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseShardManifest(again); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%+v re-encodes to %s, which parses as %+v, %v", m, again, back, err)
		}
	})
}

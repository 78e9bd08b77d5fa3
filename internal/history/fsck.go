package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Offline store verification — the engine behind cmd/pcfsck. FsckStore
// grades a store directory without opening it as a Store. A single store,
// and each shard of a sharded one, is graded by its recovery plan
// (planRecovery) — the one OpenStoreDurable carries out — so a finding is
// residue exactly when the next open repairs it, and corrupt when the
// open must quarantine the file or the journal holds a bad frame ahead of
// its tail: data that cannot be reconstructed from the store itself. To
// the plan fsck adds checks of its own: the session journal, quarantine
// accounting and, on a sharded layout, the manifest, record placement,
// records at the root and strays. The CLI exits 0 (clean), 1 (residue)
// or 2 (corruption).

// Fsck severities.
const (
	FsckClean   = 0 // nothing to report
	FsckResidue = 1 // crash residue; the next open repairs it
	FsckCorrupt = 2 // corruption; cannot be reconstructed
)

// FsckFinding is one problem fsck found.
type FsckFinding struct {
	// Severity is FsckResidue or FsckCorrupt.
	Severity int `json:"severity"`
	// Path is store-relative: a record basename, wal/<segment>, ...
	Path    string `json:"path"`
	Problem string `json:"problem"`
	// Repair describes the -repair action for this finding ("" when fsck
	// cannot repair it); Repaired reports whether it was taken.
	Repair   string `json:"repair,omitempty"`
	Repaired bool   `json:"repaired,omitempty"`
}

// FsckReport is the outcome of one FsckStore pass. For a sharded store
// the counters aggregate every shard, Findings holds only root-level
// problems (manifest, layout, records outside any shard), and the
// per-shard detail lives in Shards.
type FsckReport struct {
	Dir string `json:"dir"`
	// Records is the number of valid indexed records; Quarantined the
	// number of set-aside files.
	Records     int `json:"records"`
	Quarantined int `json:"quarantined"`
	// WALSegments/WALEntries count the readable journal.
	WALSegments int           `json:"wal_segments"`
	WALEntries  int           `json:"wal_entries"`
	Findings    []FsckFinding `json:"findings,omitempty"`
	// Sharded layout only: the manifest's shard count, the number of
	// records living on a shard their key does not hash to, and one
	// section per shard.
	Sharded    bool               `json:"sharded,omitempty"`
	ShardCount int                `json:"shard_count,omitempty"`
	Misplaced  int                `json:"misplaced,omitempty"`
	Shards     []*FsckShardReport `json:"shards,omitempty"`
}

// FsckShardReport is one shard's slice of a sharded fsck pass. Finding
// paths are shard-relative; the shard's directory is in Dir.
type FsckShardReport struct {
	Shard       int           `json:"shard"`
	Dir         string        `json:"dir"`
	Records     int           `json:"records"`
	Quarantined int           `json:"quarantined"`
	WALSegments int           `json:"wal_segments"`
	WALEntries  int           `json:"wal_entries"`
	Misplaced   int           `json:"misplaced"`
	Findings    []FsckFinding `json:"findings,omitempty"`
}

// Severity is the report's worst finding across the root and every
// shard section (FsckClean when none).
func (r *FsckReport) Severity() int {
	max := FsckClean
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	for _, sh := range r.Shards {
		for _, f := range sh.Findings {
			if f.Severity > max {
				max = f.Severity
			}
		}
	}
	return max
}

func (r *FsckReport) add(sev int, path, problem, repair string, repaired bool) {
	r.Findings = append(r.Findings, FsckFinding{
		Severity: sev, Path: path, Problem: problem, Repair: repair, Repaired: repaired,
	})
}

// The repair actions of a recovery plan's findings; a misnamed record's
// is "rename to " and its key's file name.
const (
	repairRemove     = "remove"
	repairQuarantine = "quarantine"
	repairReplay     = "replay journal entry"
	repairRestart    = "replay what reads, restart the journal"
)

// FsckStore verifies the store rooted at dir. With repair set it also
// repairs it. A single store's (and each shard's) repair is an open and
// a close — OpenStoreDurable, with the journal when wal/ exists — so it
// does exactly what the next start would, restarting the journal (wal/
// EPOCH advances by one) when there is anything to do; a finding is then
// Repaired when a second plan no longer lists it. Beside the open, torn
// session-journal entries are dropped, unrecorded quarantine files
// logged, and on a sharded layout misplaced and root records moved home.
func FsckStore(dir string, repair bool) (*FsckReport, error) { return fsck(dir, repair, nil) }

// fsck is FsckStore with every change -repair makes — its opens', and
// its own moves and removals — going through faults, or through the real
// disk when faults is nil.
func fsck(dir string, repair bool, faults *Faults) (*FsckReport, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("history: fsck: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("history: fsck: %s is not a directory", dir)
	}
	var fs fsys = osFS{}
	if faults != nil {
		fs = faults
	}
	if IsShardedLayout(dir) {
		return fsckSharded(dir, repair, faults, fs)
	}
	rep := &FsckReport{Dir: dir}
	wal := hasJournal(dir)
	if p, err := planRecovery(dir, wal); err != nil {
		rep.add(FsckCorrupt, ".", fmt.Sprintf("cannot read store: %v", err), "", false)
	} else {
		rep.Records = len(p.index)
		if p.wal != nil {
			rep.WALSegments, rep.WALEntries = p.wal.Segments, p.wal.Entries
		}
		rep.Findings = p.findings()
		if repair && len(rep.Findings) > 0 {
			o := DurableOptions{WAL: wal}
			if faults != nil {
				o.Faults = func(int) *Faults { return faults }
			}
			st, err := OpenStoreDurable(dir, o)
			if err == nil {
				err = st.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("history: fsck: repair: %w", err)
			}
			after, err := planRecovery(dir, wal)
			for i := range rep.Findings {
				rep.Findings[i].Repaired = err == nil && !after.lists(rep.Findings[i])
			}
		}
	}
	fsckSessions(dir, rep, repair, fs)
	fsckQuarantine(dir, rep, repair, fs)
	return rep, nil
}

// findings grades the plan, item by item, in the order the open carries
// it out.
func (p *recoveryPlan) findings() []FsckFinding {
	var out []FsckFinding
	add := func(sev int, path, problem, repair string) {
		out = append(out, FsckFinding{Severity: sev, Path: path, Problem: problem, Repair: repair})
	}
	for _, rel := range p.temps {
		add(FsckResidue, rel, tempProblem(rel), repairRemove)
	}
	for _, a := range p.adopt {
		if a.dup {
			add(FsckResidue, a.from, fmt.Sprintf("shadowed duplicate of %s (same record key %s)", fileName(a.key), a.key), repairQuarantine)
		} else {
			add(FsckResidue, a.from, fmt.Sprintf("record %s stored under a non-canonical name", a.key), "rename to "+fileName(a.key))
		}
	}
	if p.wal != nil {
		if p.wal.TornTail {
			add(FsckResidue, WALDirName, "torn final frame (crash mid-append; the write was never acknowledged)", repairRestart)
		}
		for _, c := range p.wal.Corrupt {
			seg, _, _ := strings.Cut(c, ":")
			add(FsckCorrupt, filepath.Join(WALDirName, seg), "bad frame before the journal tail: "+c, repairRestart+" (frames after it are lost)")
		}
		for _, c := range p.invalid {
			add(FsckCorrupt, WALDirName, "journal entry fails validation: "+c, repairRestart+" (the entry is lost)")
		}
	}
	for _, r := range p.redo {
		add(FsckResidue, fileName(r.Key()), r.problem, repairReplay)
	}
	for _, is := range p.quarantine {
		add(FsckCorrupt, is.Name, fmt.Sprintf("unreadable record: %v", is.Err), repairQuarantine)
	}
	if p.journalEpoch != 0 {
		// Promotion persists the journal epoch first, then the state, and
		// every open re-syncs the state: a mismatch is a crash between two
		// writes. The journal is the authority; fencing compares its epoch.
		add(FsckResidue, filepath.Join("replica", "STATE.json"),
			fmt.Sprintf("promoted shard's state epoch %d disagrees with journal epoch %d (crash between epoch bump and state persist)", p.stateEpoch, p.journalEpoch),
			"reconcile state to the journal's epoch")
	}
	return out
}

// lists reports whether the plan still has f's repair to make.
func (p *recoveryPlan) lists(f FsckFinding) bool {
	for _, g := range p.findings() {
		if g.Path == f.Path && g.Repair == f.Repair {
			return true
		}
	}
	return false
}

// fsckTempFiles flags (and with repair, removes) the orphaned temp
// files of every atomic writer under a sharded store's root.
func fsckTempFiles(dir string, rep *FsckReport, repair bool, fs fsys) {
	for _, rel := range leftTemp(dir, tempFiles) {
		rep.add(FsckResidue, rel, tempProblem(rel), repairRemove, repair && fs.Remove(filepath.Join(dir, rel)) == nil)
	}
}

// tempProblem says what leaves the temp file rel behind. A record
// directory's are also the spares an open store keeps, which only a
// process that did not close its store leaves.
func tempProblem(rel string) string {
	if strings.HasPrefix(filepath.Base(rel), ".put-") {
		return "orphaned record temp file (an unused spare of a killed pcd, or a staged record a crash or a failed rename left unpublished)"
	}
	return "orphaned atomic-write temp file (a crash or a failed rename left it unpublished)"
}

// fsckSharded verifies a sharded store end-to-end: the layout manifest,
// a full single-store pass per shard, the cross-shard placement
// invariant (every record lives on the shard its key hashes to), the
// shared session journal at the root, and stray files at the root or in
// shards/. With repair, per-shard repairs run as usual and misplaced or
// root-level records are moved onto their home shard — which is also
// the migration path: drop a legacy store's record files at the root
// and -repair distributes them onto the ring.
func fsckSharded(dir string, repair bool, faults *Faults, fs fsys) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir, Sharded: true}
	shardsDir := filepath.Join(dir, ShardsDirName)
	manifestRel := filepath.Join(ShardsDirName, shardManifestName)

	n := 0
	data, err := os.ReadFile(filepath.Join(shardsDir, shardManifestName))
	switch {
	case err == nil:
		if m, merr := parseShardManifest(data); merr != nil {
			rep.add(FsckCorrupt, manifestRel, merr.Error(), "", false)
		} else {
			n = m.Shards
		}
	case os.IsNotExist(err):
		rep.add(FsckCorrupt, manifestRel, "manifest missing (shard count and hash scheme unpinned)", "", false)
	default:
		rep.add(FsckCorrupt, manifestRel, fmt.Sprintf("unreadable manifest: %v", err), "", false)
	}
	if n == 0 {
		// No trustworthy manifest: infer the count from the NN
		// directories so the per-shard and placement passes still run
		// against the best available witness of the ring size.
		n = inferShardCount(shardsDir)
	}
	rep.ShardCount = n

	fsckTempFiles(dir, rep, repair, fs)
	fsckRootRecords(dir, n, rep, repair, fs)
	fsckSessions(dir, rep, repair, fs)
	fsckShardsDirStrays(shardsDir, n, rep)

	for i := 0; i < n; i++ {
		sdir := filepath.Join(shardsDir, shardDirName(i))
		rel := filepath.Join(ShardsDirName, shardDirName(i))
		if fi, serr := os.Stat(sdir); serr != nil || !fi.IsDir() {
			rep.add(FsckCorrupt, rel, "shard directory missing (records hashed to it are unreachable)", "", false)
			rep.Shards = append(rep.Shards, &FsckShardReport{Shard: i, Dir: sdir})
			continue
		}
		srep, serr := fsck(sdir, repair, faults)
		if serr != nil {
			rep.add(FsckCorrupt, rel, fmt.Sprintf("cannot fsck shard: %v", serr), "", false)
			rep.Shards = append(rep.Shards, &FsckShardReport{Shard: i, Dir: sdir})
			continue
		}
		shard := &FsckShardReport{
			Shard: i, Dir: sdir,
			Records: srep.Records, Quarantined: srep.Quarantined,
			WALSegments: srep.WALSegments, WALEntries: srep.WALEntries,
			Findings: srep.Findings,
		}
		fsckShardPlacement(shardsDir, i, n, shard, repair, fs)
		rep.Records += shard.Records
		rep.Quarantined += shard.Quarantined
		rep.WALSegments += shard.WALSegments
		rep.WALEntries += shard.WALEntries
		rep.Misplaced += shard.Misplaced
		rep.Shards = append(rep.Shards, shard)
	}
	return rep, nil
}

// inferShardCount infers the ring size from the NN directories when the
// manifest cannot be trusted.
func inferShardCount(shardsDir string) int {
	des, err := os.ReadDir(shardsDir)
	if err != nil {
		return 0
	}
	max := -1
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		if i, ok := parseShardDirName(de.Name()); ok && i > max {
			max = i
		}
	}
	return max + 1
}

// parseShardDirName parses a zero-padded NN shard directory name.
func parseShardDirName(name string) (int, bool) {
	if len(name) != 2 || name[0] < '0' || name[0] > '9' || name[1] < '0' || name[1] > '9' {
		return 0, false
	}
	return int(name[0]-'0')*10 + int(name[1]-'0'), true
}

// fsckShardPlacement verifies that every readable record in shard i
// hashes to shard i. A misplaced record is residue, not corruption —
// the bytes are intact, but point reads miss it and a Save would
// duplicate it — and -repair moves it home (unless a record already
// holds that spot, which needs a human).
func fsckShardPlacement(shardsDir string, i, n int, shard *FsckShardReport, repair bool, fs fsys) {
	if n <= 1 {
		return
	}
	sdir := filepath.Join(shardsDir, shardDirName(i))
	b := fsBackendAt(sdir)
	entries, _, err := b.Scan()
	if err != nil {
		return // the per-shard pass already reported the scan failure
	}
	for _, e := range entries {
		rec, derr := decodeRecord(e.Data)
		if derr != nil {
			continue // already reported by the per-shard pass
		}
		key := rec.Key()
		if e.Name != fileName(key) {
			continue // misnamed: already reported
		}
		want := ShardForKey(key.App, key.Version, n)
		if want == i {
			continue
		}
		shard.Misplaced++
		dest := filepath.Join(shardsDir, shardDirName(want), fileName(key))
		repaired := repair && moveHome(fs, filepath.Join(sdir, e.Name), dest)
		shard.Findings = append(shard.Findings, FsckFinding{
			Severity: FsckResidue,
			Path:     e.Name,
			Problem:  fmt.Sprintf("record %s hashes to shard %s (point reads miss it; a Save would duplicate it)", key, shardDirName(want)),
			Repair:   homeRepair(want),
			Repaired: repaired,
		})
	}
}

// fsckRootRecords flags record files sitting at the root of a sharded
// store, outside any shard, and with repair moves readable ones onto
// the shard their key hashes to.
func fsckRootRecords(dir string, n int, rep *FsckReport, repair bool, fs fsys) {
	b := &FSBackend{dir: dir, fs: fs}
	entries, issues, err := b.Scan()
	if err != nil {
		return
	}
	for _, is := range issues {
		rep.add(FsckCorrupt, is.Name, fmt.Sprintf("unreadable record outside the shard layout: %v", is.Err),
			"quarantine", repair && b.Quarantine(is.Name, "pcfsck: unreadable") == nil)
	}
	for _, e := range entries {
		rec, derr := decodeRecord(e.Data)
		if derr != nil {
			rep.add(FsckCorrupt, e.Name, fmt.Sprintf("invalid record outside the shard layout: %v", derr),
				"quarantine", repair && b.Quarantine(e.Name, "pcfsck: invalid record") == nil)
			continue
		}
		key := rec.Key()
		want := ShardForKey(key.App, key.Version, n)
		dest := filepath.Join(dir, ShardsDirName, shardDirName(want), fileName(key))
		repaired := repair && n > 0 && moveHome(fs, filepath.Join(dir, e.Name), dest)
		rep.add(FsckResidue, e.Name,
			fmt.Sprintf("record %s outside the shard layout", key),
			homeRepair(want), repaired)
	}
}

// homeRepair says what moveHome does for a record whose home is shard
// want.
func homeRepair(want int) string {
	home := filepath.Join(ShardsDirName, shardDirName(want))
	return "move to " + home + ", or remove this copy if " + home + " holds the same bytes"
}

// moveHome moves the record file at from to dest on its home shard,
// durably. When dest holds the same bytes already — a journaled shard's
// repair replays the record at home before the placement pass runs —
// the copy at from is removed instead, durably. A different record at
// dest needs a human.
func moveHome(fs fsys, from, dest string) bool {
	held, err := fs.ReadFile(dest)
	if errors.Is(err, os.ErrNotExist) {
		return moveFile(fs, from, dest) == nil
	}
	if err != nil {
		return false
	}
	if stray, err := fs.ReadFile(from); err != nil || !bytes.Equal(stray, held) {
		return false
	}
	return fs.Remove(from) == nil && fs.SyncDir(filepath.Dir(from)) == nil
}

// fsckShardsDirStrays flags entries in shards/ that are neither the
// manifest nor a shard directory on the ring.
func fsckShardsDirStrays(shardsDir string, n int, rep *FsckReport) {
	des, err := os.ReadDir(shardsDir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if name == shardManifestName || strings.HasPrefix(name, ".manifest-") && strings.HasSuffix(name, ".tmp") {
			continue // the manifest, or its temp file: fsckTempFiles reports that
		}
		if i, ok := parseShardDirName(name); ok && de.IsDir() && i < n {
			continue
		}
		rep.add(FsckResidue, filepath.Join(ShardsDirName, name),
			"unexpected entry in the shard layout", "", false)
	}
}

// fsckSessions verifies the session journal (when present): every entry
// must be parseable JSON with a plausible state. The record schema is
// owned by the server package, so fsck checks shape, not content.
func fsckSessions(dir string, rep *FsckReport, repair bool, fs fsys) {
	sdir := filepath.Join(dir, "sessions")
	des, err := os.ReadDir(sdir)
	if err != nil {
		return // no session journal — nothing to verify
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(sdir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			rep.add(FsckCorrupt, filepath.Join("sessions", name),
				fmt.Sprintf("unreadable session entry: %v", err), "", false)
			continue
		}
		var entry struct {
			State string `json:"state"`
		}
		if json.Unmarshal(data, &entry) != nil || (entry.State != "pending" && entry.State != "done") {
			rep.add(FsckResidue, filepath.Join("sessions", name),
				"torn session-journal entry (never acknowledged)", repairRemove, repair && fs.Remove(path) == nil)
		}
	}
}

// fsckQuarantine checks quarantine accounting: every set-aside file must
// have a REPORT.txt line saying why.
func fsckQuarantine(dir string, rep *FsckReport, repair bool, fs fsys) {
	qdir := filepath.Join(dir, QuarantineDir)
	des, err := os.ReadDir(qdir)
	if err != nil {
		return // no quarantine — nothing to account for
	}
	recorded := make(map[string]bool)
	rpath := filepath.Join(qdir, quarantineReport)
	if data, err := os.ReadFile(rpath); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, _, ok := strings.Cut(line, "\t"); ok {
				recorded[name] = true
			}
		}
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || name == quarantineReport {
			continue
		}
		rep.Quarantined++
		if strings.HasPrefix(name, "DIVERGENCE-") {
			// A demoted primary's truncated WAL tail: writes from a fenced
			// epoch the new generation does not hold. Always surfaced —
			// the whole point is that the loss is auditable, not silent —
			// and never auto-cleared; an operator inspects and deletes.
			rep.add(FsckResidue, filepath.Join(QuarantineDir, name),
				"diverged writes from a fenced epoch, truncated at rejoin", "", false)
			continue
		}
		if recorded[name] {
			continue
		}
		repaired := false
		if repair {
			if f, err := fs.OpenAppend(rpath); err == nil {
				fmt.Fprintf(f, "%s\t%s\n", name, "pcfsck: quarantined by an earlier run; reason not recorded")
				f.Close()
				repaired = true
			}
		}
		rep.add(FsckResidue, filepath.Join(QuarantineDir, name),
			"quarantined file with no REPORT.txt entry", "record in REPORT.txt", repaired)
	}
}

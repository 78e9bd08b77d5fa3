package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Offline store verification — the engine behind cmd/pcfsck. FsckStore
// walks a store directory without opening it as a Store: record files,
// WAL framing and CRCs, WAL-vs-disk agreement, the session journal, and
// quarantine accounting. Findings are graded so the CLI can exit 0
// (clean), 1 (recoverable crash residue — what OpenStore would repair),
// or 2 (corruption — data that cannot be reconstructed from the store
// itself).

// Fsck severities.
const (
	FsckClean   = 0 // nothing to report
	FsckResidue = 1 // crash residue; recoverable mechanically
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

// FsckStore verifies the store rooted at dir. With repair set, it also
// takes the per-finding repair action: temp orphans are removed, corrupt
// records quarantined, torn WAL tails truncated at the last valid frame,
// unapplied journal entries replayed, torn session-journal entries
// dropped, and unrecorded quarantine files logged. Repairs mirror what
// OpenStoreDurable does at open, so a repaired store opens clean.
func FsckStore(dir string, repair bool) (*FsckReport, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("history: fsck: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("history: fsck: %s is not a directory", dir)
	}
	if IsShardedLayout(dir) {
		return fsckSharded(dir, repair)
	}
	rep := &FsckReport{Dir: dir}

	fsckTempFiles(dir, rep, repair)
	fold := fsckWALScan(dir, rep, repair)
	index := fsckRecords(dir, fold, rep, repair)
	fsckWALAgreement(dir, fold, index, rep, repair)
	fsckSessions(dir, rep, repair)
	fsckQuarantine(dir, rep, repair)
	fsckReplicaState(dir, rep, repair)
	return rep, nil
}

// fsckReplicaState cross-checks a promoted shard's replication state
// against the journal's epoch counter. A promoted node's replica/
// STATE.json epoch and wal/EPOCH must agree — promotion persists the
// journal epoch first, then the state, and every restart re-syncs — so
// a mismatch is crash residue from between the two writes. The journal
// is the authority (its epoch is what fencing compares), so -repair
// reconciles the state file to it. An UNpromoted follower's state epoch
// tracks its remote primary's journal, not the local one; no check
// applies.
func fsckReplicaState(dir string, rep *FsckReport, repair bool) {
	spath, st, stateEpoch, ok := promotedState(dir)
	if !ok {
		return // no (promoted) replication state — nothing to cross-check
	}
	walEpoch, err := readWALEpoch(filepath.Join(dir, WALDirName))
	if err != nil || walEpoch == 0 || stateEpoch == walEpoch {
		return
	}
	rep.add(FsckResidue, filepath.Join("replica", "STATE.json"),
		fmt.Sprintf("promoted shard's state epoch %d disagrees with journal epoch %d (crash between epoch bump and state persist)", stateEpoch, walEpoch),
		"reconcile state to the journal's epoch", repair && writeStateEpoch(osFS{}, spath, st, walEpoch) == nil)
}

// fsckTempFiles flags (and with repair, removes) the orphaned temp
// files of every atomic writer under dir.
func fsckTempFiles(dir string, rep *FsckReport, repair bool) {
	for _, rel := range leftTemp(dir, tempFiles) {
		rep.add(FsckResidue, rel, "orphaned atomic-write temp file (a crash or a failed rename left it unpublished)",
			"remove", repair && os.Remove(filepath.Join(dir, rel)) == nil)
	}
}

// fsckRecords verifies every top-level .json record: it must parse,
// validate, and live under the one name its key maps to. A valid record
// under any other name is residue — a store written under an older
// naming scheme, or a copy left beside the real file — and -repair
// treats it as the open-time recovery pass does: renamed to its key's
// name, or quarantined as a shadowed duplicate when the key already has
// its file. A broken record whose name is covered by a journaled put is
// NOT corruption — the journal can reconstruct it, and the agreement
// pass reports (and replays) it. Returns the indexed bytes per key for
// that pass.
func fsckRecords(dir string, fold map[RecordKey]WALEntry, rep *FsckReport, repair bool) map[RecordKey][]byte {
	index := make(map[RecordKey][]byte)
	healable := make(map[string]bool, len(fold))
	for k, e := range fold {
		if e.Op == walOpPut {
			healable[fileName(k)] = true
		}
	}
	b := fsBackendAt(dir)
	entries, issues, err := b.Scan()
	if err != nil {
		rep.add(FsckCorrupt, ".", fmt.Sprintf("cannot scan store: %v", err), "", false)
		return index
	}
	for _, is := range issues {
		if healable[is.Name] {
			continue
		}
		rep.add(FsckCorrupt, is.Name, fmt.Sprintf("unreadable record: %v", is.Err),
			"quarantine", repair && b.Quarantine(is.Name, "pcfsck: unreadable") == nil)
	}
	type misnamed struct {
		name string
		key  RecordKey
		data []byte
	}
	var strays []misnamed
	for _, e := range entries {
		rec, derr := decodeRecord(e.Data)
		if derr != nil {
			if healable[e.Name] {
				continue // the agreement pass reports and replays it
			}
			rep.add(FsckCorrupt, e.Name, fmt.Sprintf("invalid record: %v", derr),
				"quarantine", repair && b.Quarantine(e.Name, "pcfsck: invalid record") == nil)
			continue
		}
		if key := rec.Key(); e.Name == fileName(key) {
			index[key] = e.Data
		} else {
			strays = append(strays, misnamed{e.Name, key, e.Data})
		}
	}
	for _, m := range strays {
		problem := fmt.Sprintf("record %s stored under a non-canonical name", m.key)
		action := "rename to " + fileName(m.key)
		if _, taken := index[m.key]; taken {
			problem = fmt.Sprintf("shadowed duplicate of %s (same record key %s)", fileName(m.key), m.key)
			action = "quarantine"
		} else {
			index[m.key] = m.data
		}
		repaired := false
		if repair {
			_, aerr := b.adopt(m.name, m.key)
			repaired = aerr == nil
		}
		rep.add(FsckResidue, m.name, problem, action, repaired)
	}
	rep.Records = len(index)
	return index
}

// fsckWALScan verifies journal framing and returns the folded journal
// (last acknowledged state per key) for the record and agreement
// passes.
func fsckWALScan(dir string, rep *FsckReport, repair bool) map[RecordKey]WALEntry {
	wdir := filepath.Join(dir, WALDirName)
	entries, scan, err := ReadWAL(wdir)
	if err != nil {
		rep.add(FsckCorrupt, WALDirName, fmt.Sprintf("cannot read journal: %v", err), "", false)
		return nil
	}
	rep.WALSegments, rep.WALEntries = scan.Segments, scan.Entries
	segs, _ := walSegments(wdir)
	if scan.TornTail && len(segs) > 0 {
		last := segs[len(segs)-1]
		path := filepath.Join(wdir, last)
		repaired := false
		if repair {
			repaired = truncateWALSegment(path) == nil
		}
		rep.add(FsckResidue, filepath.Join(WALDirName, last),
			"torn final frame (crash mid-append; the write was never acknowledged)",
			"truncate at last valid frame", repaired)
	}
	for _, c := range scan.Corrupt {
		seg := c
		if i := strings.Index(c, ":"); i >= 0 {
			seg = c[:i]
		}
		repaired := false
		if repair {
			repaired = truncateWALSegment(filepath.Join(wdir, seg)) == nil
		}
		rep.add(FsckCorrupt, filepath.Join(WALDirName, seg),
			"bad frame before the journal tail: "+c,
			"truncate at last valid frame (frames after it are lost)", repaired)
	}
	return WALFold(entries)
}

// fsckWALAgreement verifies that every acknowledged journal entry is
// reflected on disk. Disagreement is the residue of a crash between
// append and rename — exactly what replay repairs.
func fsckWALAgreement(dir string, fold map[RecordKey]WALEntry, index map[RecordKey][]byte, rep *FsckReport, repair bool) {
	keys := make([]RecordKey, 0, len(fold))
	for k := range fold {
		keys = append(keys, k)
	}
	sortKeys(keys)
	st := &Store{backend: fsBackendAt(dir), recs: make(map[RecordKey]*RunRecord)}
	for _, k := range keys {
		e := fold[k]
		cur, ok := index[k]
		var problem string
		switch {
		case e.Op == walOpPut && !ok:
			problem = "journaled write missing from disk"
		case e.Op == walOpPut && string(cur) != string(e.Data):
			problem = "record bytes differ from the journaled write"
		case e.Op == walOpDelete && ok:
			problem = "journaled delete still present on disk"
		default:
			continue
		}
		repaired := false
		if repair {
			ms, _ := foldMutations([]WALEntry{e})
			_, rerr := st.commit(ms, commitRedo)
			repaired = len(ms) == 1 && rerr == nil
		}
		rep.add(FsckResidue, fileName(k), problem, "replay journal entry", repaired)
	}
}

// truncateWALSegment cuts a segment back to the end of its last valid
// frame, dropping the torn or corrupt tail.
func truncateWALSegment(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, good, _ := DecodeWALFrames(data); good < len(data) {
		return os.Truncate(path, int64(good))
	}
	return nil // nothing to cut
}

// fsckSharded verifies a sharded store end-to-end: the layout manifest,
// a full single-store pass per shard, the cross-shard placement
// invariant (every record lives on the shard its key hashes to), the
// shared session journal at the root, and stray files at the root or in
// shards/. With repair, per-shard repairs run as usual and misplaced or
// root-level records are moved onto their home shard — which is also
// the migration path: drop a legacy store's record files at the root
// and -repair distributes them onto the ring.
func fsckSharded(dir string, repair bool) (*FsckReport, error) {
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

	fsckTempFiles(dir, rep, repair)
	fsckRootRecords(dir, n, rep, repair)
	fsckSessions(dir, rep, repair)
	fsckShardsDirStrays(shardsDir, n, rep)

	for i := 0; i < n; i++ {
		sdir := filepath.Join(shardsDir, shardDirName(i))
		rel := filepath.Join(ShardsDirName, shardDirName(i))
		if fi, serr := os.Stat(sdir); serr != nil || !fi.IsDir() {
			rep.add(FsckCorrupt, rel, "shard directory missing (records hashed to it are unreachable)", "", false)
			rep.Shards = append(rep.Shards, &FsckShardReport{Shard: i, Dir: sdir})
			continue
		}
		srep, serr := FsckStore(sdir, repair)
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
		fsckShardPlacement(shardsDir, i, n, shard, repair)
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
func fsckShardPlacement(shardsDir string, i, n int, shard *FsckShardReport, repair bool) {
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
		repaired := false
		if repair {
			if _, serr := os.Stat(dest); os.IsNotExist(serr) {
				repaired = os.Rename(filepath.Join(sdir, e.Name), dest) == nil
			}
		}
		shard.Findings = append(shard.Findings, FsckFinding{
			Severity: FsckResidue,
			Path:     e.Name,
			Problem:  fmt.Sprintf("record %s hashes to shard %s (point reads miss it; a Save would duplicate it)", key, shardDirName(want)),
			Repair:   "move to " + filepath.Join(ShardsDirName, shardDirName(want)),
			Repaired: repaired,
		})
	}
}

// fsckRootRecords flags record files sitting at the root of a sharded
// store, outside any shard, and with repair moves readable ones onto
// the shard their key hashes to.
func fsckRootRecords(dir string, n int, rep *FsckReport, repair bool) {
	b := fsBackendAt(dir)
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
		repaired := false
		if repair && n > 0 {
			dest := filepath.Join(dir, ShardsDirName, shardDirName(want), fileName(key))
			if _, serr := os.Stat(dest); os.IsNotExist(serr) {
				repaired = os.Rename(filepath.Join(dir, e.Name), dest) == nil
			}
		}
		rep.add(FsckResidue, e.Name,
			fmt.Sprintf("record %s outside the shard layout", key),
			"move to "+filepath.Join(ShardsDirName, shardDirName(want)), repaired)
	}
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
func fsckSessions(dir string, rep *FsckReport, repair bool) {
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
			repaired := false
			if repair {
				repaired = os.Remove(path) == nil
			}
			rep.add(FsckResidue, filepath.Join("sessions", name),
				"torn session-journal entry (never acknowledged)", "remove", repaired)
		}
	}
}

// fsckQuarantine checks quarantine accounting: every set-aside file must
// have a REPORT.txt line saying why.
func fsckQuarantine(dir string, rep *FsckReport, repair bool) {
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
			if f, err := os.OpenFile(rpath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
				fmt.Fprintf(f, "%s\t%s\n", name, "pcfsck: quarantined by an earlier run; reason not recorded")
				f.Close()
				repaired = true
			}
		}
		rep.add(FsckResidue, filepath.Join(QuarantineDir, name),
			"quarantined file with no REPORT.txt entry", "record in REPORT.txt", repaired)
	}
}

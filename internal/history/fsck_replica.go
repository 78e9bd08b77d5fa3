package history

import (
	"fmt"
	"os"
	"path/filepath"
)

// Cross-replica verification — pcfsck -primary. A follower replicates
// by folding the primary's journal byte for byte, so at any quiet
// moment its store must be a subset of the primary's fold with
// byte-identical records: a shared key whose bytes differ means the
// replication stream was corrupted or the follower wrote outside it —
// graded corrupt. A follower-only key is residue (a write the follower
// took after promotion, or one the primary lost); a primary-only key is
// residue too (replication lag at the moment of the check).

// FsckReplica verifies the follower store at followerDir against the
// primary store at primaryDir. Both directories may be single-store or
// sharded layouts; records are compared by key across the whole
// keyspace, so the shard counts need not match. Neither store should be
// open in a daemon.
func FsckReplica(followerDir, primaryDir string) (*FsckReport, error) {
	fol, err := foldStoreState(followerDir)
	if err != nil {
		return nil, fmt.Errorf("history: fsck replica: follower %s: %w", followerDir, err)
	}
	pri, err := foldStoreState(primaryDir)
	if err != nil {
		return nil, fmt.Errorf("history: fsck replica: primary %s: %w", primaryDir, err)
	}
	rep := &FsckReport{Dir: followerDir, Records: len(fol)}

	keys := make([]RecordKey, 0, len(fol))
	for k := range fol {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		want, ok := pri[k]
		if !ok {
			rep.add(FsckResidue, fileName(k),
				fmt.Sprintf("record %s is not in the primary's fold (written after promotion, or lost by the primary)", k),
				"", false)
			continue
		}
		if string(fol[k]) != string(want) {
			rep.add(FsckCorrupt, fileName(k),
				fmt.Sprintf("record %s diverges from the primary's fold (%d vs %d bytes)", k, len(fol[k]), len(want)),
				"", false)
		}
	}
	missing := 0
	for k := range pri {
		if _, ok := fol[k]; !ok {
			missing++
		}
	}
	if missing > 0 {
		rep.add(FsckResidue, ".",
			fmt.Sprintf("follower lags the primary's fold by %d records", missing),
			"", false)
	}
	return rep, nil
}

// foldStoreState reconstructs a store's effective record state offline:
// the valid record files overlaid with the journal's fold (last
// acknowledged write per key), exactly the state OpenStore would serve.
// Sharded layouts merge every shard.
func foldStoreState(dir string) (map[RecordKey][]byte, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	if !IsShardedLayout(dir) {
		return foldSingleState(dir)
	}
	out := make(map[RecordKey][]byte)
	shardsDir := filepath.Join(dir, ShardsDirName)
	des, err := os.ReadDir(shardsDir)
	if err != nil {
		return nil, err
	}
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		if _, ok := parseShardDirName(de.Name()); !ok {
			continue
		}
		st, err := foldSingleState(filepath.Join(shardsDir, de.Name()))
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", de.Name(), err)
		}
		for k, v := range st {
			out[k] = v
		}
	}
	return out, nil
}

// foldSingleState reconstructs one plain store's state: indexed record
// bytes, then the journal fold on top (puts replace, deletes remove).
// Unreadable records and torn journal tails are plain fsck's findings,
// not this pass's — they are skipped here.
func foldSingleState(dir string) (map[RecordKey][]byte, error) {
	out := make(map[RecordKey][]byte)
	b := fsBackendAt(dir)
	entries, _, err := b.Scan()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		rec, derr := decodeRecord(e.Data)
		if derr != nil {
			continue
		}
		out[rec.Key()] = e.Data
	}
	wentries, _, err := ReadWAL(filepath.Join(dir, WALDirName))
	if err != nil {
		return nil, err
	}
	for _, e := range wentries {
		switch e.Op {
		case walOpPut:
			out[e.Key()] = e.Data
		case walOpDelete:
			delete(out, e.Key())
		}
	}
	return out, nil
}

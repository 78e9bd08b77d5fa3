package history

import (
	"fmt"
	"maps"
	"os"
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

// foldStoreState is a store's records as its next open will serve them:
// each shard's recovery plan carried out (a plain store is its one
// shard).
func foldStoreState(dir string) (map[RecordKey][]byte, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	out := make(map[RecordKey][]byte)
	for _, sdir := range ShardDirs(dir) {
		p, err := planRecovery(sdir, hasJournal(sdir))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sdir, err)
		}
		maps.Copy(out, p.outcome())
	}
	return out, nil
}

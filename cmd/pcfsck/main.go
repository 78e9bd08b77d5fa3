// Command pcfsck verifies an experiment store offline: record files,
// write-ahead-journal framing and CRCs, journal-vs-disk agreement, the
// session journal, and quarantine accounting. Run it against a store no
// daemon has open — after a crash, before restarting pcd, or from cron
// as a consistency audit. It grades the recovery plan the store's next
// open would carry out, so the two never disagree about what is damage.
//
// A sharded store (a shards/ layout) is verified end-to-end: the layout
// manifest, every shard as a full store, and the cross-shard placement
// invariant — each record must live on the shard its (app, version)
// hashes to. Misplaced records grade as residue; -repair moves them
// home. -json reports carry per-shard sections and a misplaced count.
//
// A replica is cross-verified with -primary DIR: the follower store
// named by -store must be a subset of the primary's fold (the records
// its next open would serve) with byte-identical records. A shared key
// whose bytes differ grades corrupt — the replication stream or the
// follower's fold is damaged. A follower-only key (a write taken after
// promotion) and replication lag grade as residue.
//
// Usage:
//
//	pcfsck [-repair] [-json] [-primary DIR] -store DIR
//
// Exit codes:
//
//	0  clean — nothing to report
//	1  crash residue (torn WAL tail, unapplied journal entries,
//	   orphaned temp files, misnamed records): the next open repairs it
//	2  corruption (records the open must quarantine, bad frames before
//	   the journal tail) or the store could not be checked or repaired
//
// -repair repairs in place. On a store, and on each shard, with anything
// to repair it is an open and a close — what the next pcd start would do,
// restarting the journal (wal/EPOCH advances by one) — and beside it torn
// session entries are dropped, unrecorded quarantine files logged,
// misplaced records moved home. The exit code still reflects what was FOUND, so scripts can
// tell a repaired store from a clean one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/history"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcfsck: ")
	storeDir := flag.String("store", "", "experiment store directory to verify (required)")
	repair := flag.Bool("repair", false, "repair what can be repaired in place")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	primaryDir := flag.String("primary", "", "primary store directory; cross-verify -store (a follower) against its fold")
	flag.Parse()
	if *storeDir == "" {
		log.Println("usage: pcfsck [-repair] [-json] [-primary DIR] -store DIR")
		os.Exit(2)
	}

	rep, err := history.FsckStore(*storeDir, *repair)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	if *primaryDir != "" {
		crep, err := history.FsckReplica(*storeDir, *primaryDir)
		if err != nil {
			log.Println(err)
			os.Exit(2)
		}
		// The cross-replica findings join the store's own report, so one
		// exit code covers both checks.
		rep.Findings = append(rep.Findings, crep.Findings...)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Println(err)
			os.Exit(2)
		}
		fmt.Println(string(data))
	} else {
		render(rep)
	}
	os.Exit(rep.Severity())
}

// render prints the human-readable report.
func render(rep *history.FsckReport) {
	if rep.Sharded {
		fmt.Printf("store %s: %d shards, %d records, %d quarantined, %d misplaced, wal %d segments / %d entries\n",
			rep.Dir, rep.ShardCount, rep.Records, rep.Quarantined, rep.Misplaced, rep.WALSegments, rep.WALEntries)
	} else {
		fmt.Printf("store %s: %d records, %d quarantined, wal %d segments / %d entries\n",
			rep.Dir, rep.Records, rep.Quarantined, rep.WALSegments, rep.WALEntries)
	}
	clean := true
	for _, f := range rep.Findings {
		renderFinding("", f)
		clean = false
	}
	for _, sh := range rep.Shards {
		prefix := fmt.Sprintf("%s/%02d/", history.ShardsDirName, sh.Shard)
		for _, f := range sh.Findings {
			renderFinding(prefix, f)
			clean = false
		}
	}
	if clean {
		fmt.Println("clean")
	}
}

// renderFinding prints one finding, its path prefixed with the shard
// directory when it came from a shard section.
func renderFinding(prefix string, f history.FsckFinding) {
	grade := "residue"
	if f.Severity == history.FsckCorrupt {
		grade = "CORRUPT"
	}
	line := fmt.Sprintf("%-7s %s%s: %s", grade, prefix, f.Path, f.Problem)
	switch {
	case f.Repaired:
		line += " [repaired: " + f.Repair + "]"
	case f.Repair != "":
		line += " [-repair would: " + f.Repair + "]"
	}
	fmt.Println(line)
}

// Command pcd is the performance-consultant diagnosis daemon: it owns
// one history store plus harvest cache and serves store queries,
// directive harvesting, and on-demand diagnosis sessions over HTTP/JSON
// (see FORMATS.md "Wire API"). pcquery and pccompare speak to it via
// -server URL instead of opening a -store directory themselves.
//
// Usage:
//
//	pcd -store DIR [-create] [-shards N] [-addr 127.0.0.1:7133] [-sessions N]
//	    [-session-timeout 0] [-drain-timeout 30s]
//	    [-breaker-threshold 3] [-breaker-cooldown 5s]
//	    [-wal] [-wal-sync always|interval|none]
//	    [-ingest-queue 8] [-ingest-streams 64] [-ingest-idle-timeout 2m]
//	    [-ingest-eval-budget 16] [-ingest-harvest-sources 8]
//	    [-replicas N] [-promote] [-follow URL] [-advertise URL]
//	    [-auto-failover] [-lease-ttl 3s] [-heartbeat-every 0]
//	    [-ack-quorum 1] [-peers URL,URL]
//	    [-fault-seed N] [-fault-err-rate P] [-fault-torn-rate P]
//	    [-debug-addr host:port]
//
// The store directory must already exist unless -create is given — a
// daemon pointed at a mistyped path should fail loudly, not serve an
// empty store. Opening an existing store runs crash recovery: the
// write-ahead journal's tail is replayed (re-applying acknowledged
// writes a crash left off the record files), orphaned temp files are
// swept, and unreadable records are quarantined (moved to quarantine/
// with a report, never deleted) before serving begins.
//
// -shards N serves a consistent-hash sharded store: records route by
// (app, version) across N full stores under <store>/shards/NN/ (each
// with its own WAL, quarantine and recovery), reads scatter-gather and
// merge in canonical order, and one failed shard degrades its keyspace
// (reads skip it, writes to it get 503) instead of taking the daemon
// down — /statsz carries per-shard gauges. The layout is detected
// automatically on later opens, so -shards is only needed at -create
// time; a mismatched count is an error, not a reshard.
//
// Durability: with -wal (the default) every store mutation is journaled
// before it touches a record file, so a SIGKILL mid-write loses nothing
// that was acknowledged; -wal-sync picks the fsync policy (always, the
// default, makes acknowledged writes survive power loss too at one
// fsync per append; interval bounds power-loss exposure to the sync
// interval — SIGKILL alone still loses nothing; none leaves flushing to
// the OS).
// Diagnose requests carrying an idempotency key are journaled too:
// at every start the daemon re-runs the sessions a crash orphaned, as
// in-flight diagnoses a shutdown drains, and serves reconnecting
// clients the byte-identical stored result. Verify a store offline
// with pcfsck.
//
// The daemon also accepts live metric streams (FORMATS.md "Streaming
// ingestion"): pcfeed or any ingest.Reporter opens one stream per
// running (app, version, run), ships seq-numbered sample batches that
// an incremental diagnosis session folds in as they arrive, and
// finalizes the run into the store on the end-of-stream marker — or
// after -ingest-idle-timeout of silence. -ingest-queue bounds the
// batches buffered per stream (overflow answers 429 + Retry-After),
// -ingest-streams caps concurrent streams, -ingest-eval-budget paces
// each stream's incremental search, and -ingest-harvest-sources caps
// how many stored runs steer a stream that opted into harvesting.
//
// Replication (DESIGN.md §14): -replicas N declares this daemon the
// primary of N follower daemons and arms the semi-sync write gate —
// every acknowledged write has reached a follower (or, before the first
// follower attaches, is counted as async). Followers run the same
// binary with -follow URL pointing at the primary; each pulls the
// primary's write-ahead journal per shard, folds the frames into its
// own durable store (byte-identical records), and persists its applied
// position. When a shard's backend fails on the primary, reads fail
// over to the most-caught-up follower automatically; with -promote the
// failed shard's keyspace is additionally handed to that follower for
// writes, so the whole keyspace stays writable through the fault.
// -advertise overrides the URL peers reach this node at (default: the
// actual listen address). /statsz carries a replication block on both
// roles.
//
// Automatic failover (DESIGN.md §15): with -auto-failover on every
// node, no operator is needed when the primary dies. Follower pulls
// double as heartbeats and carry the primary's -lease-ttl grant; a
// follower without contact for a full lease runs an election against
// -peers (plus the membership learned from the primary), and the
// most-caught-up visible follower — majority visibility required, ties
// broken by smallest advertise URL — bumps the journal epoch and takes
// the keyspace. Every replication and write RPC carries the epoch;
// stale-epoch traffic is refused with HTTP 409 (the typed fencing
// error), so at most one node per keyspace accepts writes. A revived
// old primary discovers the newer epoch at startup (via PEERS.json and
// -peers), demotes itself to follower, quarantines the diverged tail
// of its journal (surfaced by pcfsck, never silently dropped), and
// catches up from a snapshot. -ack-quorum Q makes the write gate wait
// for Q follower acks instead of one. The manual path — -promote on
// the primary, or POSTing /api/v1/replica/promote to a follower —
// still works as a documented operator override.
//
// The -fault-* flags put a deterministic, seeded fault injector (errors
// and torn writes) under every shard's record files and journal, armed
// once the store is open — the chaos layer the kill-restart harness
// drives through the commit that ships. Never set them in production.
//
// When the store's backend starts failing (-breaker-threshold
// consecutive failures), the daemon degrades instead of dying: reads
// keep serving from the in-memory index, writes are refused with 503 +
// Retry-After, /healthz reports "degraded", and every -breaker-cooldown
// a health check probes the backend, returning the daemon to "ok" once
// it heals — no restart needed. On SIGINT/SIGTERM the daemon drains:
// new diagnoses are refused with 503 while in-flight sessions run to
// completion (bounded by -drain-timeout).
//
// -debug-addr host:port serves net/http/pprof (/debug/pprof/) on a
// listener and mux of its own, never on -addr; off by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/history"
	"repro/internal/node"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcd: ")
	var cfg node.Config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:7133", "listen address (host:port; port 0 picks a free port)")
	flag.StringVar(&cfg.Dir, "store", "", "history store directory (required)")
	flag.BoolVar(&cfg.Store.Create, "create", false, "create the store directory if it does not exist")
	flag.IntVar(&cfg.Shards, "shards", 0, "consistent-hash shard count for the store layout (0 = single store, or whatever layout exists)")
	flag.IntVar(&cfg.Server.Sessions, "sessions", 0, "max concurrent diagnosis sessions (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.Server.SessionTimeout, "session-timeout", 0, "per-request diagnosis timeout, queueing included (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions")
	flag.IntVar(&cfg.Server.BreakerThreshold, "breaker-threshold", 3, "consecutive backend failures before degraded mode")
	flag.DurationVar(&cfg.Server.BreakerCooldown, "breaker-cooldown", 5*time.Second, "degraded-mode probe interval and Retry-After hint")
	flag.BoolVar(&cfg.Store.WAL, "wal", true, "journal store writes ahead of record files (crash safety)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always | interval | none")
	var faults history.FaultConfig
	flag.Int64Var(&faults.Seed, "fault-seed", 1, "seed for injected backend faults (testing only)")
	flag.Float64Var(&faults.ErrRate, "fault-err-rate", 0, "injected backend error probability (testing only)")
	flag.Float64Var(&faults.TornWriteRate, "fault-torn-rate", 0, "injected torn-write probability (testing only)")
	flag.IntVar(&cfg.Server.Ingest.QueueDepth, "ingest-queue", 8, "sample batches queued per ingest stream before 429 backpressure")
	flag.IntVar(&cfg.Server.Ingest.MaxStreams, "ingest-streams", 64, "max concurrently active ingest streams")
	flag.DurationVar(&cfg.Server.Ingest.IdleTimeout, "ingest-idle-timeout", 2*time.Minute, "finalize an ingest stream idle this long (implicit end-of-stream)")
	flag.IntVar(&cfg.Server.Ingest.EvalBudget, "ingest-eval-budget", 16, "incremental pair evaluations per ingest sample batch")
	flag.IntVar(&cfg.Server.Ingest.HarvestSources, "ingest-harvest-sources", 8, "stored runs harvested to steer one ingest stream")
	flag.IntVar(&cfg.Replicas, "replicas", 0, "expected follower count; arms WAL shipping and the semi-sync write gate (primary role)")
	flag.BoolVar(&cfg.Promote, "promote", false, "promote the most-caught-up follower when a shard fails, keeping its keyspace writable")
	flag.StringVar(&cfg.Follow, "follow", "", "primary base URL to replicate from (follower role)")
	flag.StringVar(&cfg.Advertise, "advertise", "", "URL peers reach this node at (default http://<listen addr>)")
	flag.BoolVar(&cfg.AutoFailover, "auto-failover", false, "arm the heartbeat failure detector: followers self-promote when the primary's lease lapses, and a superseded primary demotes itself at startup")
	flag.DurationVar(&cfg.LeaseTTL, "lease-ttl", 3*time.Second, "liveness lease granted with every pull; a follower without contact this long starts an election (the primary's value is the cluster-wide truth)")
	flag.DurationVar(&cfg.HeartbeatEvery, "heartbeat-every", 0, "failure-detector tick and pull long-poll cap (0 = lease-ttl/6)")
	flag.IntVar(&cfg.AckQuorum, "ack-quorum", 1, "follower acks that release a gated write, clamped to [1, replicas]")
	peers := flag.String("peers", "", "comma-separated advertise URLs of the other replicas (the failover electorate)")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve net/http/pprof on this host:port, a listener of its own (empty = off)")
	flag.Parse()
	if cfg.Dir == "" {
		log.Fatal("-store is required")
	}
	if cfg.Follow != "" && cfg.Replicas > 0 {
		log.Fatal("-follow and -replicas are mutually exclusive (a node is primary or follower)")
	}
	if (cfg.Follow != "" || cfg.Replicas > 0) && !cfg.Store.WAL {
		log.Fatal("replication ships the write-ahead journal; -wal must stay on")
	}
	if cfg.AutoFailover && cfg.Follow == "" && cfg.Replicas == 0 {
		log.Fatal("-auto-failover needs a replication role (-replicas or -follow)")
	}
	var err error
	if cfg.Store.WALOptions.Sync, err = history.ParseSyncPolicy(*walSync); err != nil {
		log.Fatal(err)
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, strings.TrimRight(p, "/"))
		}
	}
	if faults.ErrRate > 0 || faults.TornWriteRate > 0 {
		log.Printf("warning: fault injection active (seed %d, err %.3f, torn %.3f)",
			faults.Seed, faults.ErrRate, faults.TornWriteRate)
		cfg.Store.Faults = func(int) *history.Faults { return history.NewFaults(faults) }
	}
	n, err := node.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The "serving" line is the startup handshake: smoke tests and
	// scripts wait for it (and parse the actual address when -addr used
	// port 0).
	fmt.Println(n.ServingLine)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("caught %v, draining", s)
	case err := <-n.ServeErr:
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Close logged every step that failed; the exit code is 0 regardless.
	_ = n.Close(ctx)
	log.Print("stopped")
}

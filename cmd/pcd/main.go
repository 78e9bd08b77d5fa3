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
//	    [-breaker-threshold 3] [-breaker-cooldown 5s] [-session-retries 1]
//	    [-wal] [-wal-sync always|interval|none] [-resume-sessions]
//	    [-checkpoint-every 2500]
//	    [-ingest-queue 8] [-ingest-streams 64] [-ingest-idle-timeout 2m]
//	    [-ingest-eval-budget 16] [-ingest-harvest-sources 8]
//	    [-replicas N] [-promote] [-follow URL] [-advertise URL]
//	    [-auto-failover] [-lease-ttl 3s] [-heartbeat-every 0]
//	    [-ack-quorum 1] [-peers URL,URL]
//	    [-fault-seed N] [-fault-err-rate P] [-fault-torn-rate P]
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
// after a crash the daemon re-runs the orphaned sessions
// (-resume-sessions) and serves reconnecting clients the byte-identical
// stored result. Verify a store offline with pcfsck.
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
// The -fault-* flags wrap the store backend with deterministic seeded
// fault injection (errors and torn writes) — the chaos layer the
// kill-restart harness drives. Never set them in production.
//
// When the store's backend starts failing (-breaker-threshold
// consecutive failures), the daemon degrades instead of dying: reads
// keep serving from the in-memory index, writes are refused with 503 +
// Retry-After, /healthz reports "degraded", and every -breaker-cooldown
// a health check probes the backend, returning the daemon to "ok" once
// it heals — no restart needed. On SIGINT/SIGTERM the daemon drains:
// new diagnoses are refused with 503 while in-flight sessions run to
// completion (bounded by -drain-timeout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/replica"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcd: ")
	var (
		addr           = flag.String("addr", "127.0.0.1:7133", "listen address (host:port; port 0 picks a free port)")
		storeDir       = flag.String("store", "", "history store directory (required)")
		create         = flag.Bool("create", false, "create the store directory if it does not exist")
		shards         = flag.Int("shards", 0, "consistent-hash shard count for the store layout (0 = single store, or whatever layout exists)")
		sessions       = flag.Int("sessions", 0, "max concurrent diagnosis sessions (0 = GOMAXPROCS)")
		sessionTimeout = flag.Duration("session-timeout", 0, "per-request diagnosis timeout, queueing included (0 = none)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions")
		brkThreshold   = flag.Int("breaker-threshold", 3, "consecutive backend failures before degraded mode")
		brkCooldown    = flag.Duration("breaker-cooldown", 5*time.Second, "degraded-mode probe interval and Retry-After hint")
		sessionRetries = flag.Int("session-retries", 1, "re-runs of a diagnosis session after a transient failure")
		wal            = flag.Bool("wal", true, "journal store writes ahead of record files (crash safety)")
		walSync        = flag.String("wal-sync", "always", "WAL fsync policy: always | interval | none")
		resumeSessions = flag.Bool("resume-sessions", true, "re-run diagnosis sessions a crash orphaned")
		ckptEvery      = flag.Float64("checkpoint-every", 2500, "session checkpoint cadence in virtual seconds")
		faultSeed      = flag.Int64("fault-seed", 1, "seed for injected backend faults (testing only)")
		faultErrRate   = flag.Float64("fault-err-rate", 0, "injected backend error probability (testing only)")
		faultTornRate  = flag.Float64("fault-torn-rate", 0, "injected torn-write probability (testing only)")
		ingQueue       = flag.Int("ingest-queue", 8, "sample batches queued per ingest stream before 429 backpressure")
		ingStreams     = flag.Int("ingest-streams", 64, "max concurrently active ingest streams")
		ingIdle        = flag.Duration("ingest-idle-timeout", 2*time.Minute, "finalize an ingest stream idle this long (implicit end-of-stream)")
		ingBudget      = flag.Int("ingest-eval-budget", 16, "incremental pair evaluations per ingest sample batch")
		ingSources     = flag.Int("ingest-harvest-sources", 8, "stored runs harvested to steer one ingest stream")
		replicas       = flag.Int("replicas", 0, "expected follower count; arms WAL shipping and the semi-sync write gate (primary role)")
		promote        = flag.Bool("promote", false, "promote the most-caught-up follower when a shard fails, keeping its keyspace writable")
		follow         = flag.String("follow", "", "primary base URL to replicate from (follower role)")
		advertise      = flag.String("advertise", "", "URL peers reach this node at (default http://<listen addr>)")
		autoFailover   = flag.Bool("auto-failover", false, "arm the heartbeat failure detector: followers self-promote when the primary's lease lapses, and a superseded primary demotes itself at startup")
		leaseTTL       = flag.Duration("lease-ttl", 3*time.Second, "liveness lease granted with every pull; a follower without contact this long starts an election (the primary's value is the cluster-wide truth)")
		heartbeatEvery = flag.Duration("heartbeat-every", 0, "failure-detector tick and pull long-poll cap (0 = lease-ttl/6)")
		ackQuorum      = flag.Int("ack-quorum", 1, "follower acks that release a gated write, clamped to [1, replicas]")
		peersFlag      = flag.String("peers", "", "comma-separated advertise URLs of the other replicas (the failover electorate)")
	)
	flag.Parse()
	if *storeDir == "" {
		log.Fatal("-store is required")
	}
	if *follow != "" && *replicas > 0 {
		log.Fatal("-follow and -replicas are mutually exclusive (a node is primary or follower)")
	}
	if (*follow != "" || *replicas > 0) && !*wal {
		log.Fatal("replication ships the write-ahead journal; -wal must stay on")
	}
	if *autoFailover && *follow == "" && *replicas == 0 {
		log.Fatal("-auto-failover needs a replication role (-replicas or -follow)")
	}
	sync, err := history.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}
	dopts := history.DurableOptions{
		Create:     *create,
		WAL:        *wal,
		WALOptions: history.WALOptions{Sync: sync},
		Replicas:   *replicas,
	}
	// The startup rejoin handshake (DESIGN.md §15): a primary revived
	// under -auto-failover interrogates its last known followers (and
	// -peers) BEFORE serving. If any claims a newer epoch, a promotion
	// happened while this node was down — it is a zombie, and it demotes
	// itself into a follower of the winner instead of splitting the brain.
	followURL := *follow
	rejoined := false
	if *autoFailover && *replicas > 0 {
		if winner, theirs, ours := supersededBy(*storeDir, splitURLs(*peersFlag), *advertise); winner != "" {
			log.Printf("rejoin: %s owns epoch %d, ours is %d; demoting to follower", winner, theirs, ours)
			followURL = winner
			rejoined = true
		}
	}
	shardCount := *shards
	peerReplicas := 0
	if followURL != "" {
		// The layout handshake: a follower mirrors the primary's shard
		// count, so its store can fold each shard's journal one to one.
		info, err := replicaInfo(followURL, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		if info.Role != "primary" {
			log.Fatalf("-follow %s: node is %q, not a primary", followURL, info.Role)
		}
		if shardCount == 0 && info.Shards > 1 {
			shardCount = info.Shards
		}
		peerReplicas = info.Replicas
	}
	if *faultErrRate > 0 || *faultTornRate > 0 {
		log.Printf("warning: fault injection active (seed %d, err %.3f, torn %.3f)",
			*faultSeed, *faultErrRate, *faultTornRate)
		dopts.Wrap = func(b history.Backend) history.Backend {
			return history.NewFaultBackend(b, history.FaultConfig{
				Seed:          *faultSeed,
				ErrRate:       *faultErrRate,
				TornWriteRate: *faultTornRate,
			})
		}
	}
	st, err := history.OpenStoreAuto(*storeDir, shardCount, dopts)
	if err != nil {
		log.Fatal(err)
	}
	if rep := st.Recovery(); rep != nil && !rep.Empty() {
		for _, sr := range rep.Shards {
			if sr.Err != "" {
				log.Printf("recovery: shard %02d down: %s (its keyspace is absent until a probe revives it)", sr.Shard, sr.Err)
			}
		}
		for _, name := range rep.SweptTemp {
			log.Printf("recovery: swept orphaned temp file %s", name)
		}
		for _, r := range rep.Renamed {
			log.Printf("recovery: renamed %s to %s (one file name per key)", r.From, r.To)
		}
		for _, q := range rep.Quarantined {
			log.Printf("recovery: quarantined %s (%s)", q.Name, q.Reason)
		}
		if w := rep.WAL; w != nil && !w.Empty() {
			log.Printf("recovery: wal replayed %d of %d journaled entries (torn tail: %v)",
				w.Replayed, w.Entries, w.TornTail)
			for _, c := range w.Corrupt {
				log.Printf("recovery: wal corrupt frame: %s", c)
			}
		}
		log.Printf("recovery: %d temp files swept, %d records quarantined under %s/%s",
			len(rep.SweptTemp), len(rep.Quarantined), st.Dir(), history.QuarantineDir)
	}
	for _, issue := range st.ScanIssues() {
		log.Printf("warning: skipped %s", issue)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	// Replication roles. A primary hooks every shard journal's append
	// stream and gates acknowledged writes on follower progress; a
	// follower pulls those streams into its own store and refuses public
	// writes for shards it has not been promoted on. Under -auto-failover
	// a follower additionally carries a dormant standby primary — the
	// moment the failure detector wins its election, the standby starts
	// serving this node's journal to the rest of the cluster.
	self := *advertise
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	var (
		node      *replica.Node
		fol       *replica.Follower
		det       *replica.Detector
		serveSt   = st
		writeGate func(app, version string) error
	)
	switch {
	case *replicas > 0 && !rejoined:
		prim, err := replica.NewPrimary(st, *replicas)
		if err != nil {
			log.Fatal(err)
		}
		prim.SetQuorum(*ackQuorum)
		prim.SetLeaseTTL(*leaseTTL)
		prim.SetPeersPath(replica.PeersFilePath(st.Dir()))
		if ss, ok := st.(*history.ShardedStore); ok {
			ss.SetFailover(replica.NewFailover(prim), *promote || *autoFailover)
		}
		serveSt = replica.Gate(st, prim)
		node = &replica.Node{Primary: prim, Advertise: self}
		if *autoFailover {
			dcfg := replica.DetectorConfig{
				Advertise: self,
				LeaseTTL:  *leaseTTL,
				Every:     *heartbeatEvery,
				Peers:     splitURLs(*peersFlag),
			}
			if ss, ok := st.(*history.ShardedStore); ok {
				dcfg.ShardHealth = ss.ShardStats
				dcfg.PromoteShard = ss.FailoverPromote
			}
			det = replica.NewDetector(prim, dcfg)
			det.Start()
		}
	case followURL != "":
		fol, err = replica.NewFollower(followURL, self, st)
		if err != nil {
			log.Fatal(err)
		}
		if rejoined {
			if err := fol.Rejoin(followURL); err != nil {
				log.Fatal(err)
			}
		}
		node = &replica.Node{Follower: fol, Advertise: self}
		writeGate = fol.Writable
		if *autoFailover {
			standbyN := peerReplicas
			if standbyN < 1 {
				standbyN = 1
			}
			standby, err := replica.NewPrimary(st, standbyN)
			if err != nil {
				log.Fatal(err)
			}
			standby.SetQuorum(*ackQuorum)
			standby.SetLeaseTTL(*leaseTTL)
			standby.SetPeersPath(replica.PeersFilePath(st.Dir()))
			if ss, ok := st.(*history.ShardedStore); ok {
				ss.SetFailover(replica.NewFailover(standby), true)
			}
			// The gate is inert until promotion: public writes are refused
			// by fol.Writable first, and the standby degrades to async
			// until its own first follower attaches.
			serveSt = replica.Gate(st, standby)
			node.Primary = standby
			det = replica.NewDetector(standby, replica.DetectorConfig{
				Advertise: self,
				LeaseTTL:  *leaseTTL,
				Every:     *heartbeatEvery,
				Peers:     splitURLs(*peersFlag),
			})
			fol.SetAutoFailover(replica.AutoConfig{
				LeaseTTL:       *leaseTTL,
				HeartbeatEvery: *heartbeatEvery,
				Peers:          splitURLs(*peersFlag),
				Replicas:       standbyN,
				OnPromote: func(epoch uint64) {
					// Flip the standby to the won generation and start
					// fencing rival epochs — this node is the primary now.
					standby.SetEpochs(epoch)
					det.Start()
					log.Printf("failover: self-promoted under epoch %d", epoch)
				},
			})
		}
		fol.Start()
	}

	srv := server.New(harness.NewEnv(serveSt), server.Options{
		Sessions:         *sessions,
		SessionTimeout:   *sessionTimeout,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		SessionRetries:   *sessionRetries,
		Ingest: ingest.ManagerOptions{
			QueueDepth:     *ingQueue,
			MaxStreams:     *ingStreams,
			IdleTimeout:    *ingIdle,
			EvalBudget:     *ingBudget,
			HarvestSources: *ingSources,
		},
		Replication: node,
		WriteGate:   writeGate,
	})
	if err := srv.EnableSessionJournal(filepath.Join(st.Dir(), server.SessionsDirName), *ckptEvery); err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// The "serving" line is the startup handshake: smoke tests and
	// scripts wait for it (and parse the actual address when -addr used
	// port 0).
	slots := *sessions
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	layout := ""
	if ss, ok := st.(*history.ShardedStore); ok {
		layout = fmt.Sprintf(", %d shards", ss.Shards())
	}
	role := ""
	switch {
	case *replicas > 0 && !rejoined:
		role = fmt.Sprintf(", primary of %d replicas", *replicas)
	case fol != nil:
		role = ", follower of " + followURL
	}
	if *autoFailover {
		role += ", auto-failover"
	}
	fmt.Printf("pcd: serving on http://%s (store %s%s%s, %d records, %d session slots)\n",
		ln.Addr(), st.Dir(), layout, role, st.Len(), slots)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// Resume crash-orphaned sessions in the background: the daemon serves
	// immediately, and a client resending its idempotency key right now
	// simply waits on the same journal claim instead of racing the
	// resume.
	if *resumeSessions {
		go func() {
			n, err := srv.ResumeSessions(context.Background())
			if err != nil {
				log.Printf("session resume: %v", err)
			}
			if n > 0 {
				log.Printf("resumed %d crash-orphaned diagnosis sessions", n)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("caught %v, draining", s)
	case err := <-errc:
		log.Fatal(err)
	}

	// Drain: refuse new diagnoses, close the streaming intake (leftover
	// streams are discarded — clients resume by restarting the run), wait
	// for in-flight sessions, then stop accepting connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if det != nil {
		det.Stop()
	}
	if fol != nil {
		fol.Stop()
	}
	// Final durability barrier: force the journal to disk before exiting,
	// so an interval/none sync policy cannot leave the tail of a clean
	// drain exposed to power loss. Close then flushes whatever remains.
	if err := st.SyncWAL(); err != nil {
		log.Printf("final wal sync: %v", err)
	} else {
		log.Print("final wal sync: journal flushed")
	}
	// Close the store last: flushes and closes the write-ahead journal.
	if err := st.Close(); err != nil {
		log.Printf("store close: %v", err)
	}
	log.Print("stopped")
}

// splitURLs parses a comma-separated -peers list.
func splitURLs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// maxDiskEpoch reads the store's journal epoch(s) straight from disk —
// before the store is opened, so before StartWAL bumps the generation.
// A sharded layout reports the max across shards; a missing journal
// reads as zero.
func maxDiskEpoch(storeDir string) uint64 {
	shardsDir := filepath.Join(storeDir, history.ShardsDirName)
	if des, err := os.ReadDir(shardsDir); err == nil {
		var max uint64
		for _, de := range des {
			if !de.IsDir() {
				continue
			}
			if e, err := history.JournalEpoch(filepath.Join(shardsDir, de.Name())); err == nil && e > max {
				max = e
			}
		}
		return max
	}
	e, _ := history.JournalEpoch(storeDir)
	return e
}

// supersededBy probes the persisted follower registry (PEERS.json) plus
// the -peers flag for a node claiming a strictly newer epoch than this
// store's on-disk journal generation. A hit means a promotion happened
// while this primary was down: it returns the winner's URL and the two
// epochs, and the caller demotes instead of serving writes.
func supersededBy(storeDir string, peers []string, self string) (winner string, theirs, ours uint64) {
	ours = maxDiskEpoch(storeDir)
	seen := make(map[string]bool)
	for _, peer := range append(replica.LoadPeers(replica.PeersFilePath(storeDir)), peers...) {
		if peer == "" || peer == self || seen[peer] {
			continue
		}
		seen[peer] = true
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		info, err := replica.FetchInfo(ctx, http.DefaultClient, peer)
		cancel()
		if err != nil {
			continue
		}
		if (info.Role == "primary" || info.Promoted) && info.Epoch > ours && info.Epoch > theirs {
			winner, theirs = peer, info.Epoch
		}
	}
	return winner, theirs, ours
}

// replicaInfo fetches the primary's layout handshake, retrying while
// the primary is still coming up (a follower is typically started
// seconds after — or concurrently with — its primary).
func replicaInfo(base string, patience time.Duration) (*replica.InfoResponse, error) {
	deadline := time.Now().Add(patience)
	for {
		info, err := fetchReplicaInfo(base)
		if err == nil {
			return info, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("primary %s unreachable: %w", base, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func fetchReplicaInfo(base string) (*replica.InfoResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/replica/info", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/api/v1/replica/info: %s", base, resp.Status)
	}
	var info replica.InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

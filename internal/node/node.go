// Package node is the one assembly of a pcd node — store → replication
// role → write gate → diagnosis service → session journal → listener —
// and the one drain that takes it down again (DESIGN.md §8 lists both).
// cmd/pcd is flag parsing around Open and Close, and the self-hosted
// daemons of pcload and pcfeed are the same Open.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
	"repro/internal/server"
)

// Config is a node's configuration: one field per pcd flag, or one
// struct per flag group where the layer below already takes one.
type Config struct {
	Addr   string // -addr
	Dir    string // -store
	Shards int    // -shards
	// Store carries -create, -wal, -wal-sync and the -fault-* injectors
	// (Faults hands each shard its own); Open sets Replicas.
	Store history.DurableOptions
	// Server carries -sessions, -session-timeout, -breaker-*,
	// -session-retries and -ingest-*; Open sets Replication and WriteGate.
	Server         server.Options
	Replicas       int           // -replicas: primary of this many followers
	Promote        bool          // -promote
	Follow         string        // -follow: follower of this primary
	Advertise      string        // -advertise
	AutoFailover   bool          // -auto-failover
	LeaseTTL       time.Duration // -lease-ttl
	HeartbeatEvery time.Duration // -heartbeat-every
	AckQuorum      int           // -ack-quorum
	Peers          []string      // -peers
	DebugAddr      string        // -debug-addr: serve net/http/pprof here ("" = off)
}

// Node is one running pcd node.
type Node struct {
	URL string // base URL on the actual listen address
	// ServingLine is the startup handshake line scripts wait for and
	// parse; pcd prints it to stdout.
	ServingLine string
	// ServeErr delivers the listener's error, should serving stop early.
	ServeErr <-chan error
	// DebugURL is where -debug-addr serves /debug/pprof/; empty when off.
	DebugURL string

	// The drain's parties, in drain order — interfaces so the drain-order
	// test can record the calls; det and fol stay nil on a node whose
	// role has none.
	srv, httpSrv interface{ Shutdown(context.Context) error }
	handler      *gate // httpSrv's handler
	det, fol     interface{ Stop() }
	debug        *http.Server
	store        history.Storage
	closeOnce    sync.Once
	closeErr     error
}

// Open brings a node up in the order DESIGN.md §8 lists — startup
// reconciliation, store, listener, replication role, service, session
// journal — and returns once it is serving.
func Open(cfg Config) (n *Node, err error) {
	// Before the store opens, so before StartWAL bumps the journal epoch:
	// a primary revived under auto-failover asks its last known followers
	// which of its shards were claimed while it was down — and its own
	// directory which it gave up at an earlier rejoin — and comes up
	// following those instead of splitting the brain. Like any follower, it
	// then waits for the node it follows to answer.
	followURL := cfg.Follow
	var lost []replica.Superseded
	if cfg.AutoFailover && cfg.Replicas > 0 {
		if lost = replica.SupersededBy(context.Background(), cfg.Dir, cfg.Peers, cfg.Advertise); len(lost) > 0 {
			followURL = lost[0].Winner
		}
	}
	// A follower mirrors its primary's shard count, so its store can fold
	// each shard's journal one to one; a primary still coming up gets 30s.
	shards, peerReplicas := cfg.Shards, 0
	if followURL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		info, err := replica.AwaitPrimary(ctx, followURL)
		cancel()
		if err != nil {
			return nil, err
		}
		if shards == 0 && info.Shards > 1 {
			shards = info.Shards
		}
		peerReplicas = info.Replicas
	}

	dopts := cfg.Store
	dopts.Replicas = cfg.Replicas
	st, err := history.OpenStoreAuto(cfg.Dir, shards, dopts)
	if err != nil {
		return nil, err
	}
	logRecovery(st)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		st.Close()
		return nil, err
	}
	serveErr := make(chan error, 1)
	n = &Node{URL: "http://" + ln.Addr().String(), ServeErr: serveErr, store: st}
	defer func() {
		if err != nil {
			ln.Close()
			st.Close()
		}
	}()

	self := cfg.Advertise
	if self == "" {
		self = n.URL
	}
	var (
		role    string
		serveSt = st
		det     *replica.Detector
		fol     *replica.Follower
		dcfg    = replica.DetectorConfig{Advertise: self, LeaseTTL: cfg.LeaseTTL, Every: cfg.HeartbeatEvery, Peers: cfg.Peers}
		opts    = cfg.Server
	)
	switch {
	case cfg.Replicas > 0 && len(lost) == 0:
		role = fmt.Sprintf(", primary of %d replicas", cfg.Replicas)
		// Under auto-failover a write that finds its shard dead promotes
		// too; the detector only covers shards no write is hitting.
		prim, err := newPrimary(st, cfg, cfg.Replicas, cfg.Promote || cfg.AutoFailover)
		if err != nil {
			return nil, err
		}
		serveSt = replica.Gate(st, prim)
		opts.Replication = &replica.Node{Primary: prim, Advertise: self}
		if cfg.AutoFailover {
			if ss, ok := st.(*history.ShardedStore); ok {
				dcfg.ShardHealth = ss.ShardStats
				dcfg.PromoteShard = ss.FailoverPromote
			}
			det = replica.NewDetector(prim, dcfg)
		}
	case followURL != "":
		role = ", follower of " + followURL
		fol, err = replica.NewFollower(followURL, self, st)
		if err != nil {
			return nil, err
		}
		// Shard by shard: the claimed ones follow their winners, the rest
		// are still this node's.
		if len(lost) > 0 {
			if err := fol.Rejoin(lost); err != nil {
				return nil, err
			}
		}
		opts.Replication = &replica.Node{Follower: fol, Advertise: self}
		opts.WriteGate = fol.Writable
		if cfg.AutoFailover {
			standbyN := max(peerReplicas, 1)
			standby, err := newPrimary(st, cfg, standbyN, true)
			if err != nil {
				return nil, err
			}
			// One table under both sides: the standby's logs, gate and
			// detector follow every stand the follower makes. The gate is
			// inert on a shard until then: public writes are refused by
			// fol.Writable first, and the standby degrades to async until its
			// own first follower attaches.
			standby.StandbyOf(fol)
			serveSt = replica.Gate(st, standby)
			opts.Replication.Primary = standby
			det = replica.NewDetector(standby, dcfg)
			fol.SetAutoFailover(replica.AutoConfig{
				LeaseTTL:       cfg.LeaseTTL,
				HeartbeatEvery: cfg.HeartbeatEvery,
				Peers:          cfg.Peers,
				Replicas:       standbyN,
			})
		}
	}
	if cfg.AutoFailover {
		role += ", auto-failover"
	}

	srv := server.New(harness.NewEnv(serveSt), opts)
	if err := srv.EnableSessionJournal(filepath.Join(st.Dir(), server.SessionsDirName), 0); err != nil {
		return nil, err
	}
	n.handler = &gate{h: srv.Handler()}
	httpSrv := &http.Server{Handler: n.handler}
	n.srv, n.httpSrv = srv, httpSrv
	// The profiler gets a listener and mux of its own: an operator's
	// loopback port, never a route of the data listener.
	if cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		n.debug, n.DebugURL = &http.Server{Handler: mux}, "http://"+dln.Addr().String()
		go n.debug.Serve(dln)
		log.Printf("debug: pprof on %s/debug/pprof/", n.DebugURL)
	}
	if fol != nil {
		n.fol = fol
		fol.Start()
	}
	if det != nil {
		n.det = det
		det.Start() // idle while the node owns no shard
	}

	slots := opts.Sessions
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	layout := ""
	if ss, ok := st.(*history.ShardedStore); ok {
		layout = fmt.Sprintf(", %d shards", ss.Shards())
	}
	n.ServingLine = fmt.Sprintf("pcd: serving on http://%s (store %s%s%s, %d records, %d session slots)",
		ln.Addr(), st.Dir(), layout, role, st.Len(), slots)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	// In the background: the node serves at once, and a client resending
	// its idempotency key now waits on the journal claim, not a race.
	go func() {
		resumed, err := srv.ResumeSessions(context.Background())
		if err != nil {
			log.Printf("session resume: %v", err)
		}
		if resumed > 0 {
			log.Printf("resumed %d crash-orphaned diagnosis sessions", resumed)
		}
	}()
	return n, nil
}

// newPrimary arms st as a replication source the way every primary —
// the configured one, or a follower's standby — is armed.
func newPrimary(st history.Storage, cfg Config, replicas int, promote bool) (*replica.Primary, error) {
	prim, err := replica.NewPrimary(st, replicas)
	if err != nil {
		return nil, err
	}
	prim.SetQuorum(cfg.AckQuorum)
	prim.SetLeaseTTL(cfg.LeaseTTL)
	prim.SetPeersPath(replica.PeersFilePath(st.Dir()))
	if ss, ok := st.(*history.ShardedStore); ok {
		ss.SetFailover(replica.NewFailover(prim), promote)
	}
	return prim, nil
}

// logRecovery reports what opening the store had to repair.
func logRecovery(st history.Storage) {
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
}

// gate is the listener's handler with the requests in it counted, so
// that the drain waits for every one: net/http's Shutdown closes a
// connection it finds idle even while the next request is being read
// from it, and hands that request to the handler after Shutdown has
// returned. Once closed, it refuses every request.
type gate struct {
	h      http.Handler
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		http.Error(w, "node is shut down", http.StatusServiceUnavailable)
		return
	}
	g.wg.Add(1)
	g.mu.Unlock()
	defer g.wg.Done()
	g.h.ServeHTTP(w, r)
}

// close refuses every later request and waits, within ctx, for the ones
// being served.
func (g *gate) close(ctx context.Context) error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is the one drain, in the order DESIGN.md §8 lists, the waits
// bounded by ctx. Every step runs even when an earlier one failed;
// failures are logged and returned. Idempotent.
func (n *Node) Close(ctx context.Context) error {
	n.closeOnce.Do(func() {
		failed := func(step string, err error) {
			log.Printf("%s: %v", step, err)
			n.closeErr = errors.Join(n.closeErr, fmt.Errorf("%s: %w", step, err))
		}
		// Refuse new diagnoses, close the streaming intake (clients resume a
		// discarded stream by restarting the run), wait out live sessions.
		if err := n.srv.Shutdown(ctx); err != nil {
			failed("drain incomplete", err)
		}
		if err := n.httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			failed("shutdown", err)
		}
		if err := n.handler.close(ctx); err != nil {
			failed("shutdown", err)
		}
		if n.debug != nil {
			n.debug.Close() // a profile still streaming is cut: the node is going down
		}
		if n.det != nil {
			n.det.Stop()
		}
		if n.fol != nil {
			n.fol.Stop()
		}
		// Nothing mutates the store past this point: force the journal to
		// disk, so no sync policy leaves a clean drain's tail to power loss.
		if err := n.store.SyncWAL(); err != nil {
			failed("final wal sync", err)
		} else {
			log.Print("final wal sync: journal flushed")
		}
		if err := n.store.Close(); err != nil {
			failed("store close", err)
		}
	})
	return n.closeErr
}

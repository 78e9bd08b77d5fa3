package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/server"
)

// Options configures one RunSuite call.
type Options struct {
	// Dir is the self-hosted store directory; empty means a fresh
	// temporary directory, removed when the run finishes.
	Dir string
	// ServerURL, when set, drives an existing pcd instead of
	// self-hosting one. Read-back verification then runs over the wire,
	// and the fsck pass is skipped (severity -1): the harness must not
	// walk a store directory another daemon has open.
	ServerURL string
	// Logf receives progress lines; nil means silent.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// opTimeout bounds one request, diagnosis sessions included; stragglers
// past it count as errors rather than wedging the run.
const opTimeout = 30 * time.Second

// RunSuite executes one scenario end to end — store bring-up, prefill,
// the measured load phase, server-counter deltas, and the post-run
// correctness sweep — and returns the suite report. The report is
// returned even when err is non-nil where possible, so callers can show
// partial numbers next to the failure.
func RunSuite(sc *Scenario, opt Options) (*SuiteReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rep := &SuiteReport{
		Suite:      sc.Name,
		Arrival:    sc.Arrival,
		RateTarget: sc.Rate,
		Workers:    sc.Workers,
		Seed:       sc.Seed,
		KeyDist:    sc.KeyDist,
		Prefill:    sc.Prefill,
		WALSync:    sc.WALSync,
		Mix:        sc.MixString(),
		Replicas:   sc.Replicas,
	}
	if sc.KillAt > 0 {
		if sc.AutoFailover {
			rep.Failover = fmt.Sprintf("kill-shard:%d at:%s auto-failover lease-ttl:%s", sc.KillShard, sc.KillAt, sc.LeaseTTL)
		} else {
			rep.Failover = fmt.Sprintf("kill-shard:%d at:%s promote:%v", sc.KillShard, sc.KillAt, sc.Promote)
		}
	}
	if armed(sc.Faults) {
		rep.FaultMix = fmt.Sprintf("seed:%d err:%g torn:%g enospc:%g",
			sc.Faults.Seed, sc.Faults.ErrRate, sc.Faults.TornWriteRate, sc.Faults.ENOSPCRate)
	}

	url := opt.ServerURL
	var local *localPCD
	if url == "" {
		dir := opt.Dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "pcload-"+sc.Name+"-*")
			if err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
			defer os.RemoveAll(tmp)
			defer os.RemoveAll(tmp + followerDirSuffix)
			dir = tmp
		}
		var err error
		local, err = startLocal(sc, dir)
		if err != nil {
			return nil, err
		}
		defer local.stop() // idempotent; normally stopped before verification
		url = local.prim.URL
		opt.logf("suite %s: serving %s (store %s, wal-sync %s)", sc.Name, url, dir, sc.WALSync)
		if local.fol != nil {
			opt.logf("suite %s: follower replica at %s (store %s)", sc.Name, local.fol.URL, local.folDir)
		}
	} else {
		opt.logf("suite %s: driving external pcd at %s", sc.Name, url)
	}

	c := client.New(url)
	// Idempotent reads retry briefly; the client-side breaker stays off —
	// the harness measures the server, not the client's protection.
	c.Retry = client.RetryPolicy{Retries: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	c.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        sc.Workers + 8,
		MaxIdleConnsPerHost: sc.Workers + 8,
	}}
	defer c.HTTPClient.CloseIdleConnections()

	ctx := context.Background()
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	err := c.WaitHealthy(hctx)
	hcancel()
	if err != nil {
		return nil, err
	}

	// acked maps acknowledged-write run ids to the synthetic-record index
	// that rebuilds their expected contents.
	acked := &ackedSet{ids: map[string]ackInfo{}}
	if err := prefill(ctx, c, sc, acked); err != nil {
		return nil, err
	}
	opt.logf("suite %s: prefilled %d records", sc.Name, sc.Prefill)

	// A health poller stands in for the deployment's health checker: it
	// keeps /healthz traffic flowing so a degraded server probes its
	// backend and heals mid-run instead of staying read-only forever.
	pollCtx, stopPoll := context.WithCancel(ctx)
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-pollCtx.Done():
				return
			case <-t.C:
				hc, cancel := context.WithTimeout(pollCtx, time.Second)
				c.Health(hc)
				cancel()
			}
		}
	}()

	before, err := c.Stats(ctx)
	if err != nil {
		stopPoll()
		return nil, err
	}

	// The scripted shard-primary death: KillAt into the measured phase,
	// one shard's backend starts failing every op. The breaker trips and
	// the failover seam keeps the keyspace readable (and, with promote,
	// writable) through the follower.
	var killTimer *time.Timer
	if local != nil && sc.KillAt > 0 && local.shardFaults != nil {
		killTimer = time.AfterFunc(sc.KillAt, func() {
			local.killShard(sc.KillShard)
			opt.logf("suite %s: shard %02d backend killed at +%s; follower takes over", sc.Name, sc.KillShard, sc.KillAt)
		})
	}

	run := &runner{sc: sc, c: c, acked: acked, col: newCollector(sc.MixClasses())}
	var wall time.Duration
	if sc.Arrival == "open" {
		wall = run.openLoop()
	} else {
		wall = run.closedLoop()
	}
	if killTimer != nil {
		killTimer.Stop()
	}
	after, err := c.Stats(ctx)
	stopPoll()
	if err != nil {
		return rep, err
	}
	rep.Server = statsDelta(before, after)
	rep.ClientRetries = c.CounterSnapshot().Retries

	rep.WallSeconds = wall.Seconds()
	rep.Stalls = run.stalls
	rep.OpLog = run.log
	rep.Verify.OpLogHash = hashLines(run.log)
	for _, class := range sc.MixClasses() {
		cc := run.col.classes[class]
		cr := classReport(class, cc.hist, cc.ops, cc.errs, cc.unavail, cc.fenced, rep.WallSeconds)
		rep.Classes = append(rep.Classes, cr)
		rep.Ops += cc.ops
		rep.Errors += cc.errs
		rep.Unavailable += cc.unavail
		rep.Fenced += cc.fenced
	}
	if rep.WallSeconds > 0 {
		rep.OpsPerSec = float64(rep.Ops) / rep.WallSeconds
	}
	opt.logf("suite %s: %d ops in %.2fs (%.1f ops/s, %d errors, %d unavailable, %d fenced)",
		sc.Name, rep.Ops, rep.WallSeconds, rep.OpsPerSec, rep.Errors, rep.Unavailable, rep.Fenced)

	// Post-run correctness sweep.
	if local != nil {
		if err := local.stop(); err != nil {
			return rep, fmt.Errorf("loadgen: stopping pcd: %w", err)
		}
		if err := verifyStore(local.dir, local.folDir, sc, acked, &rep.Verify); err != nil {
			return rep, err
		}
	} else {
		if err := verifyWire(ctx, c, sc, acked, &rep.Verify); err != nil {
			return rep, err
		}
	}
	opt.logf("suite %s: verify: %d acked writes, %d missing, %d mismatched, fsck severity %d",
		sc.Name, rep.Verify.AckedWrites, rep.Verify.ReadBackMissing,
		rep.Verify.ReadBackMismatches, rep.Verify.FsckSeverity)
	return rep, nil
}

func armed(f history.FaultConfig) bool {
	return f.ErrRate > 0 || f.TornWriteRate > 0 || f.ENOSPCRate > 0 || f.Latency > 0
}

// ackInfo locates one acknowledged write's expected contents: the
// synthetic-record index that rebuilds it, and whether it arrived
// through the streaming intake (StreamApp namespace, engine-derived
// contents) or a plain put (StoreApp, SyntheticRecord contents).
type ackInfo struct {
	idx    int
	stream bool
}

// ackedSet records acknowledged writes for the read-back sweep.
type ackedSet struct {
	mu  sync.Mutex
	ids map[string]ackInfo // run id -> expected contents
}

func (a *ackedSet) add(runID string, idx int) {
	a.mu.Lock()
	a.ids[runID] = ackInfo{idx: idx}
	a.mu.Unlock()
}

func (a *ackedSet) addStream(runID string, idx int) {
	a.mu.Lock()
	a.ids[runID] = ackInfo{idx: idx, stream: true}
	a.mu.Unlock()
}

// sorted returns the acknowledged run ids in lexical order.
func (a *ackedSet) sorted() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.ids))
	for id := range a.ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (a *ackedSet) info(runID string) ackInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ids[runID]
}

// expected rebuilds the record an acknowledged write must read back as,
// and the app namespace it lives under.
func expected(sc *Scenario, runID string, info ackInfo) (string, *history.RunRecord, error) {
	if info.stream {
		rec, err := StreamExpected(sc.Seed, info.idx, runID)
		return StreamApp, rec, err
	}
	return StoreApp, SyntheticRecord(sc.Seed, info.idx, runID), nil
}

// prefill stores the scenario's starting records. Puts are not
// idempotent at the client layer, so prefill retries explicitly — under
// a chaos scenario the injected faults hit the prefill phase too.
func prefill(ctx context.Context, c *client.Client, sc *Scenario, acked *ackedSet) error {
	for idx := 0; idx < sc.Prefill; idx++ {
		rec := SyntheticRecord(sc.Seed, idx, PrefillRunID(idx))
		var err error
		for attempt := 0; attempt < 60; attempt++ {
			pctx, cancel := context.WithTimeout(ctx, opTimeout)
			_, err = c.PutRun(pctx, rec)
			cancel()
			if err == nil {
				acked.add(rec.RunID, idx)
				break
			}
			// Give a degraded server a probe window before insisting.
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("loadgen: prefill record %d: %w", idx, err)
		}
	}
	return nil
}

// classCounts aggregates one op class.
type classCounts struct {
	hist                       *metric.LatencyHistogram
	ops, errs, unavail, fenced uint64
}

// collector aggregates per-class latency and outcome counts. The open
// loop records into it directly under the lock; closed-loop workers
// record into private collectors and merge at the end (the
// LatencyHistogram merge contract makes that exact).
type collector struct {
	mu      sync.Mutex
	classes map[string]*classCounts
}

func newCollector(classes []string) *collector {
	col := &collector{classes: map[string]*classCounts{}}
	for _, c := range classes {
		col.classes[c] = &classCounts{hist: metric.NewLatencyHistogram()}
	}
	return col
}

func (col *collector) record(class string, d time.Duration, err error) {
	col.mu.Lock()
	defer col.mu.Unlock()
	cc := col.classes[class]
	cc.ops++
	cc.hist.Record(d)
	switch {
	case err == nil:
	case errors.Is(err, client.ErrUnavailable) || errors.Is(err, client.ErrBreakerOpen):
		cc.unavail++
	case errors.Is(err, client.ErrFenced):
		cc.fenced++
	default:
		cc.errs++
	}
}

func (col *collector) merge(other *collector) {
	col.mu.Lock()
	defer col.mu.Unlock()
	for class, oc := range other.classes {
		cc := col.classes[class]
		cc.hist.Merge(oc.hist)
		cc.ops += oc.ops
		cc.errs += oc.errs
		cc.unavail += oc.unavail
		cc.fenced += oc.fenced
	}
}

// runner executes one measured load phase.
type runner struct {
	sc     *Scenario
	c      *client.Client
	acked  *ackedSet
	col    *collector
	stalls uint64
	log    []string
}

// execute issues one op and records its latency and outcome.
func (r *runner) execute(col *collector, op Op) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	var err error
	switch op.Class {
	case "get":
		_, err = r.c.GetRun(ctx, StoreApp, PrefillRef(op.Key))
	case "put":
		idx := r.sc.Prefill + op.Seq
		rec := SyntheticRecord(r.sc.Seed, idx, PutRunID(op.Seq))
		if _, err = r.c.PutRun(ctx, rec); err == nil {
			r.acked.add(rec.RunID, idx)
		}
	case "putbatch":
		recs := make([]*history.RunRecord, PutBatchSize)
		for j := range recs {
			recs[j] = SyntheticRecord(r.sc.Seed, batchIdx(op.Seq, j), PutBatchRunID(op.Seq, j))
		}
		if _, err = r.c.PutRuns(ctx, recs); err == nil {
			for j, rec := range recs {
				r.acked.add(rec.RunID, batchIdx(op.Seq, j))
			}
		}
	case "stream":
		err = r.stream(ctx, op)
	case "query":
		_, err = r.c.Query(ctx, client.QueryParams{
			App:     StoreApp,
			Version: VersionOf(op.Key),
			State:   "true",
			Min:     0.1 + 0.05*float64(op.Key%8),
		})
	case "compare":
		_, err = r.c.Compare(ctx, StoreApp, PrefillRef(op.Key), PrefillRef(op.Key2), 0.02)
	case "harvest":
		_, err = r.c.Harvest(ctx, &server.HarvestRequest{
			App:     StoreApp,
			Runs:    []string{PrefillRef(op.Key)},
			Options: core.HarvestAll(),
		})
	case "diagnose":
		_, err = r.c.Diagnose(ctx, &server.DiagnoseRequest{
			App:     DiagnoseApp,
			RunID:   fmt.Sprintf("load-%06d", op.Seq),
			MaxTime: r.sc.DiagnoseMaxTime,
			Seed:    r.sc.Seed + int64(op.Seq) + 1,
		})
	default:
		err = fmt.Errorf("loadgen: unknown op class %q", op.Class)
	}
	col.record(op.Class, time.Since(start), err)
}

// stream executes one stream-class op: open a live stream, ship the
// deterministic sample set in seq-numbered batches, and finalize with
// the end-of-stream marker. A failure mid-stream discards the stream so
// the daemon does not hold it until the idle timeout.
func (r *runner) stream(ctx context.Context, op Op) error {
	runID, version := StreamRunID(op.Seq), VersionOf(op.Seq)
	samples := StreamSamples(r.sc.Seed, op.Seq)
	if _, err := r.c.IngestStart(ctx, &ingest.StartRequest{
		App: StreamApp, Version: version, RunID: runID,
	}); err != nil {
		return err
	}
	seq := 1
	for i := 0; i < len(samples); i += StreamBatchSize {
		end := i + StreamBatchSize
		if end > len(samples) {
			end = len(samples)
		}
		if _, err := r.c.IngestSamples(ctx, &ingest.SamplesRequest{
			App: StreamApp, Version: version, RunID: runID,
			Seq: seq, Samples: samples[i:end],
		}); err != nil {
			r.c.IngestEnd(ctx, &ingest.EndRequest{
				App: StreamApp, Version: version, RunID: runID, Discard: true,
			})
			return err
		}
		seq++
	}
	resp, err := r.c.IngestEnd(ctx, &ingest.EndRequest{
		App: StreamApp, Version: version, RunID: runID,
		Seq: seq, Elapsed: StreamElapsed,
	})
	if err != nil {
		return err
	}
	if resp.Saved != "" {
		r.acked.addStream(runID, op.Seq)
	}
	return nil
}

// openLoop plays the precomputed Poisson schedule: each op is launched
// at its arrival time on a fresh goroutine, bounded by the in-flight
// cap. When the cap is full the dispatcher stalls (counted) — arrival
// independence is preserved up to Workers outstanding requests.
func (r *runner) openLoop() time.Duration {
	ops := Schedule(r.sc)
	r.log = make([]string, len(ops))
	for i, op := range ops {
		r.log[i] = op.String()
	}
	sem := make(chan struct{}, r.sc.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		op := ops[i]
		if d := time.Duration(op.At*float64(time.Second)) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			r.stalls++
			sem <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r.execute(r.col, op)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// closedLoop runs Workers request loops back to back until the scenario
// duration elapses. Each worker draws from its own seeded op stream and
// records into its own collector; results merge afterwards.
func (r *runner) closedLoop() time.Duration {
	var wg sync.WaitGroup
	logs := make([][]string, r.sc.Workers)
	cols := make([]*collector, r.sc.Workers)
	start := time.Now()
	deadline := start.Add(r.sc.Duration)
	for w := 0; w < r.sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workerGen(r.sc, w)
			col := newCollector(r.sc.MixClasses())
			cols[w] = col
			// Worker-scoped sequence numbers keep put targets globally
			// unique: worker w owns [w*1e6, (w+1)*1e6).
			base := w * 1_000_000
			for i := 0; time.Now().Before(deadline); i++ {
				op := gen.next(base + i)
				logs[w] = append(logs[w], fmt.Sprintf("w%02d %s", w, op.String()))
				r.execute(col, op)
				if r.sc.Think > 0 {
					time.Sleep(r.sc.Think)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for w := 0; w < r.sc.Workers; w++ {
		r.col.merge(cols[w])
		r.log = append(r.log, logs[w]...)
	}
	return wall
}

// statsDelta computes the after-minus-before movement of the server
// counters the report carries.
func statsDelta(before, after *server.StatsResponse) *ServerDelta {
	d := &ServerDelta{
		OpCounts:        map[string]uint64{},
		InFlightAtEnd:   after.InFlight,
		TotalSessions:   after.TotalSessions - before.TotalSessions,
		BackendFaults:   after.BackendFaults - before.BackendFaults,
		WritesRejected:  after.WritesRejected - before.WritesRejected,
		BreakerOpens:    after.BreakerOpens - before.BreakerOpens,
		WALAppends:      after.WALAppends - before.WALAppends,
		WALSyncs:        after.WALSyncs - before.WALSyncs,
		JournalHits:     after.JournalHits - before.JournalHits,
		SessionsResumed: after.SessionsResumed - before.SessionsResumed,
		IngestStreams:   after.Ingest.Started - before.Ingest.Started,
		IngestSamples:   after.Ingest.Samples - before.Ingest.Samples,
		IngestRejected:  after.Ingest.RejectedFull - before.Ingest.RejectedFull,
	}
	for ep, n := range after.OpCounts {
		if delta := n - before.OpCounts[ep]; delta > 0 {
			d.OpCounts[ep] = delta
		}
	}
	return d
}

// followerDirSuffix names the follower node's store directory next to
// the primary's ("<dir>-follower") — outside the primary's tree, so each
// store can be fscked on its own.
const followerDirSuffix = "-follower"

// localPCD is the self-hosted pcd: the node cmd/pcd runs (node.Open)
// over a durable, optionally fault-injected store, on loopback — minus
// process isolation (the kill-9 harness covers that). With
// Scenario.Replicas it is a pair: a `pcd -replicas N` primary and the
// `pcd -follow` node that replicates it.
type localPCD struct {
	dir, folDir string
	prim, fol   *node.Node

	// shardFaults holds the primary's per-shard disk injectors (one for a
	// plain store) when the scenario faults or kills a shard; killShard
	// flips one to a 100% error rate.
	shardFaults []*history.Faults
}

func startLocal(sc *Scenario, dir string) (*localPCD, error) {
	sync, err := history.ParseSyncPolicy(sc.WALSync)
	if err != nil {
		return nil, err
	}
	cfg := node.Config{
		Addr:   "127.0.0.1:0",
		Dir:    dir,
		Shards: sc.Shards,
		Store: history.DurableOptions{
			Create:     true,
			WAL:        true,
			WALOptions: history.WALOptions{Sync: sync},
		},
		Server:       server.Options{Sessions: sc.Workers, BreakerCooldown: sc.BreakerCooldown},
		Replicas:     sc.Replicas,
		Promote:      sc.Promote,
		AutoFailover: sc.AutoFailover,
		LeaseTTL:     sc.LeaseTTL,
	}
	p := &localPCD{dir: dir}
	if sc.KillAt > 0 || armed(sc.Faults) {
		// Every shard writes through an injector of its own, at the
		// scenario's fault rates: the same seed, drawn against the shard's
		// own paths.
		p.shardFaults = make([]*history.Faults, max(sc.Shards, 1))
		for i := range p.shardFaults {
			p.shardFaults[i] = history.NewFaults(sc.Faults)
		}
		cfg.Store.Faults = func(shard int) *history.Faults { return p.shardFaults[shard] }
	}
	if p.prim, err = node.Open(cfg); err != nil {
		return nil, err
	}
	if sc.Replicas > 0 {
		p.folDir = dir + followerDirSuffix
		p.fol, err = node.Open(node.Config{
			Addr:         "127.0.0.1:0",
			Dir:          p.folDir,
			Store:        history.DurableOptions{Create: true, WAL: true},
			Follow:       p.prim.URL,
			AutoFailover: sc.AutoFailover,
			LeaseTTL:     sc.LeaseTTL,
		})
		if err != nil {
			p.stop()
			return nil, err
		}
	}
	return p, nil
}

// killShard fails one shard's disk outright — every create, rename,
// remove, sync and read errors from here on, the shard-primary death the
// failover seam exists for.
func (p *localPCD) killShard(shard int) {
	if shard >= 0 && shard < len(p.shardFaults) && p.shardFaults[shard] != nil {
		p.shardFaults[shard].SetConfig(history.FaultConfig{ErrRate: 1})
	}
}

// stop drains the node(s) the way SIGTERM drains pcd — the follower
// first, so no long-polling pull holds the primary's listener open.
// Idempotent.
func (p *localPCD) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The faults are the serving phase's: the drain runs on a healed disk,
	// so that a killed shard's final journal sync says nothing about the
	// suite.
	for _, f := range p.shardFaults {
		f.SetConfig(history.FaultConfig{})
	}
	var folErr error
	if p.fol != nil {
		folErr = p.fol.Close(ctx)
	}
	return errors.Join(p.prim.Close(ctx), folErr)
}

// verifyStore is the self-hosted correctness sweep: reopen the quiesced
// store with the standard recovery pass, on the real disk (the fault
// injectors were the serving node's alone), read back every acknowledged
// write against its rebuilt expected bytes, hash the full contents in
// canonical encoding, close, and run the offline fsck grade. With a
// follower replica (folDir non-empty) an acknowledged write may live on
// the follower instead — a write taken after promotion — and the sweep
// accepts it from either store; the follower store then gets its own
// fsck grade plus the cross-replica fold comparison.
func verifyStore(dir, folDir string, sc *Scenario, acked *ackedSet, v *Verification) error {
	st, err := history.OpenStoreAuto(dir, 0, history.DurableOptions{WAL: true})
	if err != nil {
		return fmt.Errorf("loadgen: reopening store for verification: %w", err)
	}
	var folSt history.Storage
	if folDir != "" {
		folSt, err = history.OpenStoreAuto(folDir, 0, history.DurableOptions{WAL: true})
		if err != nil {
			st.Close()
			return fmt.Errorf("loadgen: reopening follower store for verification: %w", err)
		}
	}
	v.AckedWrites = len(acked.ids)
	v.FollowerFsckSeverity = -1
	for _, runID := range acked.sorted() {
		info := acked.info(runID)
		app, want, werr := expected(sc, runID, info)
		if werr != nil {
			return fmt.Errorf("loadgen: rebuilding expected record %s: %w", runID, werr)
		}
		rec, err := st.Load(app, VersionOf(info.idx), runID)
		if err == nil && canonicalEqual(rec, want) {
			continue
		}
		if folSt != nil {
			if frec, ferr := folSt.Load(app, VersionOf(info.idx), runID); ferr == nil && canonicalEqual(frec, want) {
				v.ReadBackFailedOver++
				continue
			}
		}
		if err != nil {
			v.ReadBackMissing++
		} else {
			v.ReadBackMismatches++
		}
	}
	v.StoreRecords = st.Len()
	v.StoreHash, err = storeHash(st)
	if err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fsck, err := history.FsckStore(dir, false)
	if err != nil {
		return fmt.Errorf("loadgen: fsck: %w", err)
	}
	v.FsckSeverity = fsck.Severity()
	for _, f := range fsck.Findings {
		v.FsckFindings = append(v.FsckFindings, fmt.Sprintf("%s: %s", f.Path, f.Problem))
	}
	for _, sh := range fsck.Shards {
		for _, f := range sh.Findings {
			v.FsckFindings = append(v.FsckFindings,
				fmt.Sprintf("%s/%02d/%s: %s", history.ShardsDirName, sh.Shard, f.Path, f.Problem))
		}
	}
	if folSt == nil {
		return nil
	}
	v.FollowerRecords = folSt.Len()
	if err := folSt.Close(); err != nil {
		return err
	}
	folFsck, err := history.FsckStore(folDir, false)
	if err != nil {
		return fmt.Errorf("loadgen: follower fsck: %w", err)
	}
	v.FollowerFsckSeverity = folFsck.Severity()
	for _, f := range folFsck.Findings {
		v.FsckFindings = append(v.FsckFindings, fmt.Sprintf("follower:%s: %s", f.Path, f.Problem))
	}
	for _, sh := range folFsck.Shards {
		for _, f := range sh.Findings {
			v.FsckFindings = append(v.FsckFindings,
				fmt.Sprintf("follower:%s/%02d/%s: %s", history.ShardsDirName, sh.Shard, f.Path, f.Problem))
		}
	}
	// Cross-replica: the follower must be a subset of the primary's fold
	// with byte-identical shared records. Post-promotion extras and
	// replication lag grade as residue; divergence is corruption, and
	// only that fails the bar.
	cross, err := history.FsckReplica(folDir, dir)
	if err != nil {
		return fmt.Errorf("loadgen: cross-replica fsck: %w", err)
	}
	for _, f := range cross.Findings {
		if f.Severity == history.FsckCorrupt && v.FollowerFsckSeverity < 2 {
			v.FollowerFsckSeverity = 2
		}
		v.FsckFindings = append(v.FsckFindings, fmt.Sprintf("replica:%s: %s", f.Path, f.Problem))
	}
	return nil
}

// verifyWire is the external-server sweep: read every acknowledged
// write back over the API. The store directory belongs to the remote
// daemon, so there is no fsck pass (severity -1) and no content hash.
func verifyWire(ctx context.Context, c *client.Client, sc *Scenario, acked *ackedSet, v *Verification) error {
	v.AckedWrites = len(acked.ids)
	v.FsckSeverity = -1
	v.FollowerFsckSeverity = -1
	for _, runID := range acked.sorted() {
		info := acked.info(runID)
		app, want, werr := expected(sc, runID, info)
		if werr != nil {
			return fmt.Errorf("loadgen: rebuilding expected record %s: %w", runID, werr)
		}
		rctx, cancel := context.WithTimeout(ctx, opTimeout)
		rec, err := c.GetRun(rctx, app, VersionOf(info.idx)+":"+runID)
		cancel()
		if err != nil {
			v.ReadBackMissing++
			continue
		}
		if !canonicalEqual(rec, want) {
			v.ReadBackMismatches++
		}
	}
	return nil
}

// canonicalEqual compares two records via the canonical wire encoding.
func canonicalEqual(a, b *history.RunRecord) bool {
	da, err1 := server.MarshalCanonical(a)
	db, err2 := server.MarshalCanonical(b)
	return err1 == nil && err2 == nil && bytes.Equal(da, db)
}

// storeHash fingerprints the full store contents: every record's
// canonical encoding, folded in key order. It speaks history.Storage,
// so a sharded and a single store holding the same records hash alike.
func storeHash(st history.Storage) (string, error) {
	keys := st.Keys()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return a.RunID < b.RunID
	})
	h := sha256.New()
	for _, k := range keys {
		rec, err := st.Load(k.App, k.Version, k.RunID)
		if err != nil {
			return "", fmt.Errorf("loadgen: store hash: %w", err)
		}
		data, err := server.MarshalCanonical(rec)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s/%s/%s\n", k.App, k.Version, k.RunID)
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashLines fingerprints the executed op log.
func hashLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

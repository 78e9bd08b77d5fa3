package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/history"
)

// runConfig is one invocation's settings.
type runConfig struct {
	root    string // checkout root
	work    string // scratch directory of this run, removed at exit
	pcdBin  string
	seed    int64
	seconds float64 // measured phase
	clients int
	// traceOut receives the spans of a traced run as JSON lines.
	traceOut string
}

func (c runConfig) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what one run of one workload reports.
type result struct {
	workload  string
	attempted int
	failed    int
	correct   bool
	errs      []string
	metrics   map[string]float64
	// counts are the sample counts printed beside the percentiles.
	counts map[string]int
	phases []phaseTime
	notes  []string
}

type phaseTime struct {
	name string
	d    time.Duration
}

func newResult(wl workload) *result {
	return &result{workload: wl.Name(), correct: true, metrics: map[string]float64{}, counts: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) phase(name string, start time.Time) {
	r.phases = append(r.phases, phaseTime{name, time.Since(start)})
}

// stage is a topology ready for its load: what setUp leaves.
type stage struct {
	w      *world
	topo   *topology
	checks []check // the prefilled records, for the gate
	// took is one sample of setup_s: the set-up at the reference pace
	// (ref.go); wall is the same as the clock read it. The kernel runs
	// that pace it are in neither.
	took, wall time.Duration
	// bootstrap is how long the follower took from start to caught up.
	bootstrap time.Duration
}

// setUp brings one topology to the state the load starts from: corpus
// built, daemons serving, store prefilled, follower attached. It is
// paced stage by stage, and batch by batch through the prefill.
func setUp(cfg runConfig, wl workload, dir string, rec *recorder, inProcess bool) (*stage, error) {
	p := startPacer()
	lap := func() { p.lap() }
	corp, err := buildCorpus(lap)
	if err != nil {
		return nil, err
	}
	w := &world{seed: cfg.seed, corp: corp, wl: wl, rec: rec}
	if wl.Name() == "stream" {
		if w.streams, err = buildStreams(cfg.seed, lap); err != nil {
			return nil, err
		}
	}
	var topo *topology
	if inProcess {
		topo, err = hostInProcess(dir, wl.Spec(), rec)
	} else {
		topo, err = startChildren(cfg.pcdBin, dir, wl.Spec())
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	pre := wl.Prefill(w)
	checks := make([]check, len(pre))
	for i, pr := range pre {
		checks[i] = check{key: pr.rec.Key(), want: pr.want}
	}
	p.lap()
	if err := prefill(ctx, topo.primary.url, pre, p); err != nil {
		topo.kill()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	bootstrap, err := topo.attachFollower(ctx)
	if err != nil {
		topo.kill()
		return nil, fmt.Errorf("attach follower: %w", err)
	}
	p.lap()
	return &stage{w: w, topo: topo, checks: checks, took: p.paced, wall: p.wall, bootstrap: bootstrap}, nil
}

// prefill puts the records in batches over one connection, as the load
// will use, closing a lap of p after each batch.
func prefill(ctx context.Context, url string, pre []prefillRecord, p *pacer) error {
	cl := client.NewResilient(url, 2)
	for i := 0; i < len(pre); i += writeBatchSize {
		var recs []*history.RunRecord
		for _, pr := range pre[i:min(i+writeBatchSize, len(pre))] {
			recs = append(recs, pr.rec)
		}
		if _, err := cl.PutRuns(ctx, recs); err != nil {
			return err
		}
		p.lap()
	}
	return nil
}

// tearDown stops every node of a topology, follower first so the
// primary never sees its quorum vanish mid-write.
func tearDown(topo *topology) error {
	var first error
	if topo.follower != nil {
		if err := topo.follower.drain(); err != nil {
			first = err
		}
	}
	if err := topo.primary.drain(); err != nil && first == nil {
		first = err
	}
	return first
}

// kill stops every node at once, with no drain: for a topology whose
// store nobody will read. A no-op on nodes that have already exited.
func (t *topology) kill() {
	for _, n := range t.nodes() {
		if n.stop != nil {
			n.stop()
		} else {
			n.kill()
		}
	}
}

// gate is the correctness gate run after the drain. Read-only passes
// run side by side over the stores the daemons left: fsck must grade
// every store clean and the follower's fold equal to the primary's,
// and every acknowledged write must read back from its record file
// byte for byte equal to the regenerated record. Then the
// primary's store is reopened the way a restart opens it — journal
// replay, index build — and must come up with nothing quarantined and
// every acknowledged key indexed.
func gate(topo *topology, checks []check, res *result) (reopen time.Duration, fsckSeverity int, userBytes int64) {
	var mu sync.Mutex // guards res and the return values
	report := func(what string, rep *history.FsckReport, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			res.fail("%s: %v", what, err)
		case rep.Severity() != 0:
			fsckSeverity = max(fsckSeverity, rep.Severity())
			first := ""
			for _, f := range append(append([]history.FsckFinding(nil), rep.Findings...), shardFindings(rep)...) {
				first = f.Path + ": " + f.Problem
				break
			}
			res.fail("%s: severity %d (first finding: %s)", what, rep.Severity(), first)
		}
	}
	var tasks []func()
	for _, n := range topo.nodes() {
		n := n
		tasks = append(tasks, func() {
			rep, err := history.FsckStore(n.dir, false)
			report("fsck "+n.role, rep, err)
		})
	}
	if topo.follower != nil {
		tasks = append(tasks, func() {
			rep, err := history.FsckReplica(topo.follower.dir, topo.primary.dir)
			report("follower fold against the primary's", rep, err)
		})
	}
	backends, err := shardBackends(topo.primary.dir)
	if err != nil {
		res.fail("open record files: %v", err)
		res.failed += len(checks)
		checks = nil
	}
	for _, ck := range checks {
		ck := ck
		tasks = append(tasks, func() {
			n, err := verifyOne(backends, ck)
			mu.Lock()
			userBytes += int64(n)
			if err != nil {
				res.failed++
				res.fail("%v", err)
			}
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	next := make(chan func())
	for i := 0; i < gateWorkers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range next {
				task()
			}
		}()
	}
	for _, task := range tasks {
		next <- task
	}
	close(next)
	wg.Wait()

	t0 := time.Now()
	st, err := history.OpenStoreAuto(topo.primary.dir, 0, history.DurableOptions{WAL: true})
	if err != nil {
		res.fail("reopen: %v", err)
		return 0, fsckSeverity, userBytes
	}
	reopen = time.Since(t0)
	defer st.Close()
	if rep := st.Recovery(); rep != nil && len(rep.Quarantined) > 0 {
		res.fail("reopen quarantined %d records", len(rep.Quarantined))
	}
	if issues := st.ScanIssues(); len(issues) > 0 {
		res.fail("reopen skipped %d unreadable records (first: %s)", len(issues), issues[0])
	}
	for _, ck := range checks {
		if _, err := st.Load(ck.key.App, ck.key.Version, ck.key.RunID); err != nil {
			res.failed++
			res.fail("acked write %s is missing after reopen: %v", ck.key, err)
		}
	}
	return reopen, fsckSeverity, userBytes
}

// shardFindings gathers the per-shard findings of a sharded report.
func shardFindings(rep *history.FsckReport) []history.FsckFinding {
	var out []history.FsckFinding
	for _, sh := range rep.Shards {
		out = append(out, sh.Findings...)
	}
	return out
}

// shardBackends opens the record files of a store directory, one
// backend per shard (one in all for a plain store), without opening the
// store: no replay, no index, nothing written.
func shardBackends(dir string) ([]history.Backend, error) {
	dirs := []string{dir}
	if history.IsShardedLayout(dir) {
		var err error
		if dirs, err = filepath.Glob(filepath.Join(dir, history.ShardsDirName, "[0-9][0-9]")); err != nil {
			return nil, err
		}
		sort.Strings(dirs)
	}
	out := make([]history.Backend, len(dirs))
	for i, d := range dirs {
		b, err := history.NewFSBackend(d)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// verifyOne holds one acknowledged write to its regenerated bytes,
// returning how many bytes the user had handed the store for it.
func verifyOne(shards []history.Backend, ck check) (int, error) {
	want, err := ck.want()
	if err != nil {
		return 0, err
	}
	sh := shards[history.ShardForKey(ck.key.App, ck.key.Version, len(shards))]
	got, err := sh.Get(ck.key)
	if err != nil {
		return len(want), fmt.Errorf("acked write %s is not in the store the daemon left: %w", ck.key, err)
	}
	if !bytes.Equal(got, want) {
		return len(want), fmt.Errorf("acked write %s: stored bytes differ from the regenerated record (%d vs %d bytes)", ck.key, len(got), len(want))
	}
	return len(want), nil
}

// loadSummary folds the clients' samples into the numbers both run
// modes report. Times are at the reference pace wherever the load was
// paced; the *Wall fields are the same numbers as the clock read them.
type loadSummary struct {
	ops          int               // ops in whole blocks of the mix
	opsPerS      float64           // summed over clients
	opsPerSWall  float64           //
	headline     map[int][]float64 // headline latencies in ms by stratum
	headlineWall map[int][]float64 //
	headlineAll  []float64
	byClass      [numClasses][]float64 // call round trips in µs, wall clock
	// pace is paced time over wall time, summed over every op: the factor
	// that takes a total over the whole load, such as the daemons' CPU
	// seconds, to the reference pace.
	pace      float64
	refMS     []float64 // every reference kernel run of the load
	attempted int
	failed    int
	errs      []string
}

// anyTag makes summarize take every sample.
const anyTag = -1

func summarize(wl workload, clients []*clientState, tag int) *loadSummary {
	s := &loadSummary{headline: make(map[int][]float64), headlineWall: make(map[int][]float64)}
	var wall, paced float64
	for _, c := range clients {
		calls, ops := c.calls, c.ops
		if tag != anyTag {
			calls, ops = nil, nil
			for _, cs := range c.calls {
				if cs.tag == tag {
					calls = append(calls, cs)
				}
			}
			for _, o := range c.ops {
				if o.tag == tag {
					ops = append(ops, o)
				}
			}
		}
		s.attempted += c.attempted
		s.failed += c.failed
		if c.firstErr != nil {
			s.errs = append(s.errs, c.firstErr.Error())
		}
		s.refMS = append(s.refMS, c.refMS...)
		// Throughput is taken block by block: rot consecutive ops are one
		// whole block of the mix (one rotation of the job list), every block
		// is the same kind of work, and the rate is a block's ops over the
		// trimmed mean of the blocks' times. A total over the window would
		// be a plain mean, which one stalled second moves by a twentieth,
		// and a window cut in the middle of a block would count its cheap
		// ops and not its dear ones.
		rot := wl.Rotation()
		var blocks, blocksWall []float64
		for i := 0; i+rot <= len(ops); i += rot {
			var b, bw float64
			for _, o := range ops[i : i+rot] {
				b += float64(o.wall) * o.scale
				bw += float64(o.wall)
			}
			blocks, blocksWall = append(blocks, b/1e9), append(blocksWall, bw/1e9)
		}
		if len(blocks) > 0 {
			s.ops += len(blocks) * rot
			s.opsPerS += float64(rot) / trimmedMean(blocks)
			s.opsPerSWall += float64(rot) / trimmedMean(blocksWall)
		}
		for _, cs := range calls {
			s.byClass[cs.class] = append(s.byClass[cs.class], float64(cs.ns)/1e3)
		}
		for _, o := range ops {
			wall += float64(o.wall)
			paced += float64(o.wall) * o.scale
			if o.stratum > 0 {
				s.headline[o.stratum] = append(s.headline[o.stratum], float64(o.ns)*o.scale/1e6)
				s.headlineWall[o.stratum] = append(s.headlineWall[o.stratum], float64(o.ns)/1e6)
			}
		}
	}
	for _, xs := range s.headline {
		s.headlineAll = append(s.headlineAll, xs...)
	}
	s.pace = 1
	if wall > 0 {
		s.pace = paced / wall
	}
	return s
}

// setUps is how many times an end-to-end run sets its topology up;
// setup_s is the median.
const setUps = 3

// runEndToEnd measures one workload against real pcd child processes
// with tracing off: setUps set-ups, of which the last carries the load —
// warm-up, the measured phase, drain, gate. Every time it reports is at
// the reference pace (ref.go).
func runEndToEnd(cfg runConfig, wl workload) (*result, error) {
	res := newResult(wl)
	var st *stage
	var took, tookWall []float64
	for i := 0; i < setUps; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("e2e-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		var err error
		if st, err = setUp(cfg, wl, dir, nil, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		defer st.topo.kill() // a no-op after a clean drain
		res.phase(fmt.Sprintf("set-up %d", i), t0)
		took, tookWall = append(took, st.took.Seconds()), append(tookWall, st.wall.Seconds())
		if i < setUps-1 {
			// Timed and done with: nobody reads this store.
			st.topo.kill()
			os.RemoveAll(dir)
		}
	}
	w, topo, checks := st.w, st.topo, st.checks
	t0 := time.Now()
	if err := wl.Prepare(w); err != nil {
		return nil, err
	}
	res.phase("references for the checks", t0)

	clients := make([]*clientState, cfg.clients)
	for i := range clients {
		clients[i] = newClient(w, topo.primary.url, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.measure()+150*time.Second)
	defer cancel()
	t0 = time.Now()
	load, err := runLoad(ctx, w, topo, clients, wl.WarmOps(), cfg.measure(), false)
	if err != nil {
		return nil, err
	}
	res.phase("warm-up + measured", t0)

	t0 = time.Now()
	if topo.follower != nil {
		if err := topo.waitCaughtUp(ctx); err != nil {
			res.fail("%v", err)
		}
	}
	for _, c := range clients {
		c.closeIdle()
		checks = append(checks, c.checks...)
	}
	if err := tearDown(topo); err != nil {
		res.fail("drain: %v", err)
	}
	sum := summarize(wl, clients, anyTag)
	res.attempted, res.failed = sum.attempted, sum.failed
	for _, e := range sum.errs {
		res.fail("%s", e)
	}
	disk := dirBytes(topo.primary.dir)
	_, _, userBytes := gate(topo, checks, res)
	res.phase(fmt.Sprintf("drain + gate (%d acked writes)", len(checks)), t0)
	if r := load.after.Replication; r != nil && load.before.Replication != nil && r.Epoch != load.before.Replication.Epoch {
		res.fail("an election ran during the load: epoch %d -> %d", load.before.Replication.Epoch, r.Epoch)
	}
	if res.failed > 0 {
		res.correct = false
	}

	m := res.metrics
	m["setup_s"] = median(took)
	m["ops_per_s"] = sum.opsPerS
	m["op_p50_ms"] = stratifiedMedian(sum.headline)
	m["op_p95_ms"] = percentile(sum.headlineAll, 95)
	m["peak_rss_mb"] = load.rss
	n := totalOps(clients)
	if n > 0 {
		m["cpu_ms_per_op"] = load.cpuChild * sum.pace * 1e3 / float64(n)
	}
	if userBytes > 0 {
		m["disk_bytes_per_user_byte"] = float64(disk) / float64(userBytes)
	}
	res.counts["op_p50_ms"] = len(sum.headlineAll)
	res.counts["op_p95_ms"] = len(sum.headlineAll)
	res.counts["ops_per_s"] = sum.ops

	var wallAll []float64
	for _, xs := range sum.headlineWall {
		wallAll = append(wallAll, xs...)
	}
	var refS float64
	for _, k := range sum.refMS {
		refS += k / 1e3
	}
	self := load.cpuSelf - refS // the kernel is not the generator's work
	res.notes = append(res.notes,
		fmt.Sprintf("reference kernel: %d runs in the load, median %.3f ms, quartiles %.3f / %.3f ms (nominal %.3f ms); paced/wall over the load %.3f",
			len(sum.refMS), median(sum.refMS), percentile(sum.refMS, 25), percentile(sum.refMS, 75), ms(refNominal), sum.pace),
		fmt.Sprintf("as the clock read them: setup_s %.4f, ops_per_s %.4f, op_p50_ms %.4f, op_p95_ms %.4f, cpu_ms_per_op %.4f",
			median(tookWall), sum.opsPerSWall, stratifiedMedian(sum.headlineWall), percentile(wallAll, 95), load.cpuChild*1e3/float64(max(n, 1))),
		fmt.Sprintf("loadgen cpu share %.0f%% of all CPU used in the measured phase (this process less the kernel / the same + pcd)",
			100*self/(self+load.cpuChild)))
	return res, nil
}

// totalOps counts every op completed in the measured phase, whole
// blocks or not: the CPU clocks were read around all of them.
func totalOps(clients []*clientState) int {
	n := 0
	for _, c := range clients {
		n += len(c.ops)
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/server"
)

// workload is one traffic mix against one topology. Op must be a pure
// function of (world seed, client index, op index) in everything it
// sends; it verifies what comes back and registers every acknowledged
// write with the client for the post-drain gate.
type workload interface {
	Name() string
	Why() string
	Spec() topoSpec
	// Headline names the op class whose latency is op_p50_ms/op_p95_ms.
	Headline() string
	// Rotation is the length of the fixed job list ops rotate through,
	// or 1.
	Rotation() int
	// WarmOps is how many ops each client runs before the measured phase.
	// A count, not a time, so that every run enters the measured phase
	// with the same store contents whatever the machine's speed was.
	WarmOps() int
	// Prepare builds the references the workload's checks need (they
	// depend on the seed alone, so a second call is a no-op). It is the
	// benchmark's own work and not part of setup_s.
	Prepare(w *world) error
	// Prefill returns the records the store holds before the load.
	Prefill(w *world) []prefillRecord
	// Op runs op idx of client c. stratum says how the op counts toward
	// the headline latency: 0 = not a headline op; otherwise the job it
	// belongs to, and the headline median is taken per job.
	Op(ctx context.Context, c *clientState, op uint64, idx int) (stratum int, err error)
}

// prefillRecord is one record put before the load, with the closure
// that regenerates its stored bytes for the gate.
type prefillRecord struct {
	rec  *history.RunRecord
	want func() ([]byte, error)
}

func allWorkloads() []workload {
	return []workload{
		&writeWorkload{name: "write-durable"},
		&writeWorkload{name: "write-replicated", replicated: true},
		&readMixed{},
		&diagnoseWorkload{},
		&streamWorkload{},
	}
}

func workloadByName(name string) workload {
	for _, wl := range allWorkloads() {
		if wl.Name() == name {
			return wl
		}
	}
	return nil
}

// derivedPrefill is n derived corpus records p0000..: record i is
// corpus slot i mod 9 under its own app/version.
func derivedPrefill(w *world, n int) []prefillRecord {
	out := make([]prefillRecord, n)
	for i := range out {
		slot, runID, jkey := i%len(w.corp.recs), fmt.Sprintf("p%04d", i), hash4(w.seed, -1, i, 0)
		src := w.corp.recs[slot]
		appName, version := src.App, src.Version
		corp := w.corp
		out[i] = prefillRecord{
			rec: corp.derive(slot, appName, version, runID, jkey),
			want: func() ([]byte, error) {
				return canonicalBytes(corp.derive(slot, appName, version, runID, jkey))
			},
		}
	}
	return out
}

// prefillKey is the key of derivedPrefill record i.
func prefillKey(w *world, i int) history.RecordKey {
	src := w.corp.recs[i%len(w.corp.recs)]
	return history.RecordKey{App: src.App, Version: src.Version, RunID: fmt.Sprintf("p%04d", i)}
}

// ---- write-durable / write-replicated ------------------------------

const (
	writePrefill   = 64
	writeBatchSize = 8
)

// writeWorkload is the write path measured two ways with one op
// sequence: against a plain store, and against a sharded primary with a
// quorum-acked follower. The difference between the two is the cost of
// routing, the gate, fencing and follower apply.
type writeWorkload struct {
	name       string
	replicated bool
}

func (wl *writeWorkload) Name() string { return wl.name }
func (wl *writeWorkload) Why() string {
	if wl.replicated {
		return "same mix and seed against a 2-shard primary with one quorum-acked follower: the difference is routing + gate + fencing + follower apply"
	}
	return "put 8 : putbatch(8) 1 : get 1 of real 45-483 KB records on a plain store at -wal-sync always: the single-node write baseline"
}
func (wl *writeWorkload) Spec() topoSpec {
	if wl.replicated {
		return topoSpec{Shards: 2, Replicated: true}
	}
	return topoSpec{}
}
func (wl *writeWorkload) Headline() string { return "put_run" }
func (wl *writeWorkload) Rotation() int    { return len(writeMix.classes) }
func (wl *writeWorkload) WarmOps() int {
	if wl.replicated {
		return 12
	}
	return 24
}
func (wl *writeWorkload) Prepare(w *world) error           { return nil }
func (wl *writeWorkload) Prefill(w *world) []prefillRecord { return derivedPrefill(w, writePrefill) }

// shuffled returns a permutation of 0..n-1 drawn from (seed, c, k,
// salt): Fisher-Yates with hashes for draws.
func shuffled(seed int64, c, k, salt, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(hash4(seed, c, k*64+i, salt) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// opMix is a traffic mix dealt in blocks: every block of len(classes)
// consecutive ops of a client holds each class exactly as often as the
// mix says, in an order shuffled per block. Drawing each op's class at
// random would give the same mix on average, but a 3-second stretch of
// 100 ops would hold anywhere from 5 to 15 of a class that is a tenth
// of the mix, and when that class is a putbatch worth eight puts the
// stretch's work per op moves by a sixth with the seed.
type opMix struct {
	classes []int // one entry per op of a block
	salt    int
}

func newOpMix(salt int, counts ...int) opMix {
	m := opMix{salt: salt}
	for class, n := range counts {
		for i := 0; i < n; i++ {
			m.classes = append(m.classes, class)
		}
	}
	return m
}

// at returns the class of client c's op idx and how many ops of that
// class the client has run before it.
func (m opMix) at(seed int64, c, idx int) (class, nth int) {
	n := len(m.classes)
	block, pos := idx/n, idx%n
	order := shuffled(seed, c, block, m.salt, n)
	class = m.classes[order[pos]]
	perBlock := 0
	for _, cl := range m.classes {
		if cl == class {
			perBlock++
		}
	}
	nth = block * perBlock
	for _, o := range order[:pos] {
		if m.classes[o] == class {
			nth++
		}
	}
	return class, nth
}

// slotOf deals corpus slots the same way: the n-th record a client
// writes (per stream: single puts, or records of batches) takes slot
// n mod 9 of a permutation shuffled every nine records, so any nine
// consecutive records are one of each size.
func slotOf(w *world, c, n, stream int) int {
	k := len(w.corp.recs)
	return shuffled(w.seed, c, n/k, 200+stream, k)[n%k]
}

// derivedPut is the record client c's op idx writes from corpus slot
// (j numbers the records of a batch, -1 a single put). The key is unique.
func derivedPut(w *world, c, idx, j, slot int, appSuffix string) (rec *history.RunRecord, jkey uint64) {
	jkey = hash4(w.seed, c, idx, 100+j)
	src := w.corp.recs[slot]
	runID := fmt.Sprintf("c%d-%06d", c, idx)
	if j >= 0 {
		runID += fmt.Sprintf("-%d", j)
	}
	return w.corp.derive(slot, src.App+appSuffix, src.Version, runID, jkey), jkey
}

// writeMix is put 8 : putbatch 1 : get 1.
var writeMix = newOpMix(0, 8, 1, 1)

func (wl *writeWorkload) Op(ctx context.Context, c *clientState, op uint64, idx int) (int, error) {
	w := c.w
	switch class, nth := writeMix.at(w.seed, c.idx, idx); class {
	case 0:
		slot := slotOf(w, c.idx, nth, 0)
		rec, jkey := derivedPut(w, c.idx, idx, -1, slot, "")
		if err := c.putRun(ctx, op, rec); err != nil {
			return 0, err
		}
		c.ackedDerived(rec, slot, jkey)
		// A put's latency grows with its record: one stratum per slot.
		return 1 + slot, nil
	case 1:
		recs := make([]*history.RunRecord, writeBatchSize)
		slots, jkeys := make([]int, writeBatchSize), make([]uint64, writeBatchSize)
		for j := range recs {
			slots[j] = slotOf(w, c.idx, nth*writeBatchSize+j, 1)
			recs[j], jkeys[j] = derivedPut(w, c.idx, idx, j, slots[j], "")
		}
		if err := c.putRuns(ctx, op, recs); err != nil {
			return 0, err
		}
		for j, rec := range recs {
			c.ackedDerived(rec, slots[j], jkeys[j])
		}
	default:
		i := int(hash4(w.seed, c.idx, idx, 1) % writePrefill)
		key := prefillKey(w, i)
		got, err := c.getRun(ctx, op, key)
		if err != nil {
			return 0, err
		}
		want := w.corp.derive(i%len(w.corp.recs), key.App, key.Version, key.RunID, hash4(w.seed, -1, i, 0))
		if !sameRecord(got, want) {
			return 0, fmt.Errorf("get %s: record differs from what was put", key)
		}
	}
	return 0, nil
}

// ---- read-mixed ----------------------------------------------------

const (
	readPrefill = 256
	zipfS       = 1.2
)

// readMixed is the query side: a sharded store holding 256 records,
// Zipf-skewed keys, and a trickle of puts beside the reads.
type readMixed struct {
	zipf []float64 // cumulative Zipf(1.2) over prefill ranks
	// ref is the in-process reference every read is held to: the same
	// prefill in a memory store behind a harness.Env.
	ref *harness.Env

	mu   sync.Mutex
	memo map[string]any // expected response by request
}

func (wl *readMixed) Name() string { return "read-mixed" }
func (wl *readMixed) Why() string {
	return "get 8 : query 4 : compare 2 : harvest 2 : persistent 1 : put 1, Zipf(1.2) keys over 256 records on 4 shards: scatter-gather, index and harvest cache work, fsync idle"
}
func (wl *readMixed) Spec() topoSpec { return topoSpec{Shards: 4, WALSync: "interval"} }
func (wl *readMixed) Headline() string {
	return "read (get_run, query, compare, harvest, persistent)"
}
func (wl *readMixed) Rotation() int { return len(readMix.classes) }
func (wl *readMixed) WarmOps() int  { return 54 }

func (wl *readMixed) Prepare(w *world) error {
	// The memo starts empty in every replica, so each pays for its own
	// reference answers and none runs lighter than the others.
	wl.memo = make(map[string]any)
	if wl.ref != nil {
		return nil // the reference depends on the seed alone; replicas share it
	}
	wl.zipf = make([]float64, readPrefill)
	var sum float64
	for k := range wl.zipf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		wl.zipf[k] = sum
	}
	for k := range wl.zipf {
		wl.zipf[k] /= sum
	}
	st := history.NewMemStore()
	for _, p := range derivedPrefill(w, readPrefill) {
		if err := st.Save(p.rec); err != nil {
			return err
		}
	}
	wl.ref = harness.NewEnv(st)
	return nil
}

func (wl *readMixed) Prefill(w *world) []prefillRecord { return derivedPrefill(w, readPrefill) }

// rank draws a Zipf-distributed prefill index from a hash.
func (wl *readMixed) rank(h uint64) int {
	i := sort.SearchFloat64s(wl.zipf, unit(h))
	if i >= len(wl.zipf) {
		i = len(wl.zipf) - 1
	}
	return i
}

// sibling picks another prefill record of the same app/version as i.
func sibling(i int, h uint64, slots int) int {
	slot := i % slots
	n := (readPrefill - slot + slots - 1) / slots
	j := slot + slots*int(h%uint64(n))
	if j == i {
		j = slot + slots*((j/slots+1)%n)
	}
	return j
}

// expected memoizes the reference answer of one request.
func (wl *readMixed) expected(key string, compute func() (any, error)) (any, error) {
	wl.mu.Lock()
	v, ok := wl.memo[key]
	wl.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	wl.mu.Lock()
	wl.memo[key] = v
	wl.mu.Unlock()
	return v, nil
}

// readMix is get 8 : query 4 : compare 2 : harvest 2 : persistent 1 :
// put 1.
var readMix = newOpMix(1, 8, 4, 2, 2, 1, 1)

var queryFilters = []client.QueryParams{
	{State: "true"},
	{Hyp: "ExcessiveSyncWaitingTime", State: "true"},
	{Hyp: "CPUbound", Min: 0.2},
	{Focus: "/Code", State: "true", Min: 0.1},
}

// harvestResponse assembles what POST /api/v1/harvest answers, from the
// reference environment.
func harvestResponse(env *harness.Env, req *server.HarvestRequest) (*server.HarvestResponse, error) {
	ds, maps, err := env.HarvestRuns(req.App, req.Runs, req.Options, req.Combine, req.MapTo)
	if err != nil {
		return nil, err
	}
	resp := &server.HarvestResponse{
		Source:     ds.Source,
		Directives: core.FormatDirectives(ds),
		Prunes:     len(ds.Prunes),
		Priorities: len(ds.Priorities),
		Thresholds: len(ds.Thresholds),
	}
	if len(maps) > 0 {
		resp.Mappings = core.FormatMappings(maps)
		resp.MappingCount = len(maps)
	}
	return resp, nil
}

func (wl *readMixed) Op(ctx context.Context, c *clientState, op uint64, idx int) (int, error) {
	w := c.w
	slots := len(w.corp.recs)
	k := wl.rank(hash4(w.seed, c.idx, idx, 1))
	key := prefillKey(w, k)
	st := wl.ref.Store()
	switch class, nth := readMix.at(w.seed, c.idx, idx); class {
	case 0: // get
		got, err := c.getRun(ctx, op, key)
		if err != nil {
			return 1, err
		}
		want, err := st.Load(key.App, key.Version, key.RunID)
		if err != nil {
			return 1, err
		}
		if !sameRecord(got, want) {
			return 1, fmt.Errorf("get %s: record differs from the reference", key)
		}
	case 1: // query
		p := queryFilters[hash4(w.seed, c.idx, idx, 2)%uint64(len(queryFilters))]
		p.App, p.Version = key.App, key.Version
		got, err := c.query(ctx, op, p)
		if err != nil {
			return 1, err
		}
		want, err := wl.expected(fmt.Sprintf("query %+v", p), func() (any, error) {
			hits, err := st.Query(p.App, p.Version, history.ResultFilter{
				Hyp: p.Hyp, FocusContains: p.Focus, State: p.State, MinValue: p.Min,
			})
			return &server.QueryResponse{App: p.App, Hits: server.WireQueryHits(hits)}, err
		})
		if err != nil {
			return 1, err
		}
		if !reflect.DeepEqual(got, want) {
			return 1, fmt.Errorf("query %+v: %d hits differ from the reference", p, len(got.Hits))
		}
	case 2: // compare
		other := prefillKey(w, sibling(k, hash4(w.seed, c.idx, idx, 2), slots))
		got, err := c.compare(ctx, op, key, other, 0.02)
		if err != nil {
			return 1, err
		}
		want, err := wl.expected("compare "+key.Ref()+" "+other.Ref()+" "+key.App, func() (any, error) {
			a, err := st.Load(key.App, key.Version, key.RunID)
			if err != nil {
				return nil, err
			}
			b, err := st.Load(other.App, other.Version, other.RunID)
			if err != nil {
				return nil, err
			}
			resp, err := server.BuildCompareResponse(a, b, 0.02)
			if err != nil {
				return nil, err
			}
			resp.A, resp.B = key.Ref(), other.Ref()
			return resp, nil
		})
		if err != nil {
			return 1, err
		}
		if !reflect.DeepEqual(got, want) {
			return 1, fmt.Errorf("compare %s %s: differs from the reference", key, other)
		}
	case 3: // harvest
		other := prefillKey(w, sibling(k, hash4(w.seed, c.idx, idx, 2), slots))
		req := &server.HarvestRequest{
			App: key.App, Runs: []string{key.Ref(), other.Ref()},
			Options: core.HarvestAll(), Combine: "and",
		}
		got, err := c.harvest(ctx, op, req)
		if err != nil {
			return 1, err
		}
		want, err := wl.expected("harvest "+key.App+" "+key.Ref()+" "+other.Ref(), func() (any, error) {
			return harvestResponse(wl.ref, req)
		})
		if err != nil {
			return 1, err
		}
		if !reflect.DeepEqual(got, want) {
			return 1, fmt.Errorf("harvest %s+%s: differs from the reference", key, other)
		}
	case 4: // persistent
		got, err := c.persistent(ctx, op, key.App, key.Version, 2)
		if err != nil {
			return 1, err
		}
		want, err := wl.expected("persistent "+key.App+" "+key.Version, func() (any, error) {
			counts, err := st.PersistentBottlenecks(key.App, key.Version, 2)
			return &server.PersistentResponse{App: key.App, MinRuns: 2, Pairs: server.SortedPersistent(counts)}, err
		})
		if err != nil {
			return 1, err
		}
		if !reflect.DeepEqual(got, want) {
			return 1, fmt.Errorf("persistent %s/%s: differs from the reference", key.App, key.Version)
		}
	default: // put, under app names no read targets, so reads stay checkable
		slot := slotOf(w, c.idx, nth, 0)
		rec, jkey := derivedPut(w, c.idx, idx, -1, slot, ".w")
		if err := c.putRun(ctx, op, rec); err != nil {
			return 0, err
		}
		c.ackedDerived(rec, slot, jkey)
		return 0, nil
	}
	return 1, nil // every read is one stratum: the headline is their plain median
}

// ---- diagnose ------------------------------------------------------

// diagJob is one tuning step: harvest directives from the stored run of
// Src and diagnose Dst directed by them, mapped when the versions
// differ — the paper's use of the previous version's history.
type diagJob struct{ Src, Dst appVersion }

var diagJobs = []diagJob{
	{appVersion{"poisson", "A"}, appVersion{"poisson", "A"}},
	{appVersion{"poisson", "A"}, appVersion{"poisson", "B"}},
	{appVersion{"poisson", "B"}, appVersion{"poisson", "C"}},
	{appVersion{"poisson", "C"}, appVersion{"poisson", "D"}},
	{appVersion{"mw", ""}, appVersion{"mw", ""}},
	{appVersion{"pipeline", ""}, appVersion{"pipeline", ""}},
}

// diagHarvest is the paper's best variant, "Priorities & All Prunes".
var diagHarvest = core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}

type diagnoseWorkload struct {
	ref *harness.Env
	// want[j] is the base bottleneck set job j's directed run is timed
	// against, and harvests[j] the reference harvest response.
	want     []map[string]bool
	harvests []*server.HarvestResponse
}

func (wl *diagnoseWorkload) Name() string { return "diagnose" }
func (wl *diagnoseWorkload) Why() string {
	return "the paper's tuning step over the wire: harvest a stored run, diagnose the next version directed by it, save; sim, dyninst, consultant and core do the work"
}
func (wl *diagnoseWorkload) Spec() topoSpec   { return topoSpec{} }
func (wl *diagnoseWorkload) Headline() string { return "harvest+diagnose pair" }
func (wl *diagnoseWorkload) Rotation() int    { return len(diagJobs) }
func (wl *diagnoseWorkload) WarmOps() int     { return 2 * len(diagJobs) }

func (wl *diagnoseWorkload) Prefill(w *world) []prefillRecord {
	out := make([]prefillRecord, len(w.corp.recs))
	for i, rec := range w.corp.recs {
		rec := rec
		out[i] = prefillRecord{rec: rec, want: func() ([]byte, error) { return canonicalBytes(rec) }}
	}
	return out
}

func harvestRequest(j diagJob) *server.HarvestRequest {
	req := &server.HarvestRequest{
		App: j.Src.App, Runs: []string{j.Src.Version + ":" + baseRunID}, Options: diagHarvest,
	}
	if j.Src != j.Dst {
		req.MapTo = j.Dst.Version + ":" + baseRunID
	}
	return req
}

// importantKeys is SessionResult.ImportantKeys computed from a stored
// record: the canonical keys of the bottlenecks that stand clear of
// their threshold, the set Table 1 times.
func importantKeys(rec *history.RunRecord) map[string]bool {
	out := make(map[string]bool)
	for _, nr := range rec.Results {
		if nr.State != "true" || (nr.Threshold > 0 && nr.Value < nr.Threshold*(1+harness.ImportantMargin)) {
			continue
		}
		out[nr.Hyp+" "+harness.CanonicalFocus(nr.Focus, rec.ProcNodes)] = true
	}
	return out
}

func (wl *diagnoseWorkload) Prepare(w *world) error {
	if wl.ref != nil {
		return nil
	}
	st := history.NewMemStore()
	for _, rec := range w.corp.recs {
		if err := st.Save(rec); err != nil {
			return err
		}
	}
	wl.ref = harness.NewEnv(st)
	for _, j := range diagJobs {
		base, err := st.Load(j.Dst.App, j.Dst.Version, baseRunID)
		if err != nil {
			return err
		}
		wl.want = append(wl.want, importantKeys(base))
		h, err := harvestResponse(wl.ref, harvestRequest(j))
		if err != nil {
			return err
		}
		wl.harvests = append(wl.harvests, h)
	}
	return nil
}

// sessionFor re-runs one diagnose request in this process.
func sessionFor(req *server.DiagnoseRequest) (*harness.SessionResult, error) {
	a, err := app.Build(req.App, req.Version, app.Options{})
	if err != nil {
		return nil, err
	}
	cfg := harness.DefaultSessionConfig()
	cfg.RunID = req.RunID
	cfg.Sim.Seed = req.Seed
	if req.Directives != "" {
		ds, err := core.ParseDirectives(strings.NewReader(req.Directives))
		if err != nil {
			return nil, err
		}
		cfg.Directives = ds
	}
	return harness.RunSession(a, cfg)
}

// diagRequest is the diagnose request of client c's op idx.
func diagRequest(w *world, c, idx int, directives string) *server.DiagnoseRequest {
	j := diagJobs[idx%len(diagJobs)]
	return &server.DiagnoseRequest{
		App: j.Dst.App, Version: j.Dst.Version,
		RunID:      fmt.Sprintf("d-c%d-%06d", c, idx),
		Seed:       int64(hash4(w.seed, c, idx, 0)%1_000_000) + 1,
		Directives: directives,
		Save:       true,
	}
}

func (wl *diagnoseWorkload) Op(ctx context.Context, c *clientState, op uint64, idx int) (int, error) {
	ji := idx % len(diagJobs)
	j, stratum := diagJobs[ji], 1+ji
	h, err := c.harvest(ctx, op, harvestRequest(j))
	if err != nil {
		return stratum, err
	}
	if !reflect.DeepEqual(h, wl.harvests[ji]) {
		return stratum, fmt.Errorf("harvest %s->%s: differs from the reference", j.Src, j.Dst)
	}
	req := diagRequest(c.w, c.idx, idx, h.Directives)
	resp, err := c.diagnose(ctx, op, req)
	if err != nil {
		return stratum, err
	}
	key := history.RecordKey{App: req.App, Version: req.Version, RunID: req.RunID}
	if resp.Saved != key.String() {
		return stratum, fmt.Errorf("diagnose %s: server saved %q", key, resp.Saved)
	}
	// The response is held to an in-process session with the same inputs
	// after the drain, where re-running it cannot steal the daemon's CPU.
	c.acked(key, func() ([]byte, error) {
		res, err := sessionFor(req)
		if err != nil {
			return nil, err
		}
		if resp.Quiesced != res.Quiesced || resp.EndTime != res.EndTime || resp.PairsTested != res.PairsTested ||
			resp.SkippedDirectives != res.SkippedDirectives ||
			!reflect.DeepEqual(resp.Bottlenecks, server.WireBottlenecks(res.Bottlenecks)) {
			return nil, fmt.Errorf("diagnose %s seed %d: response differs from the in-process session", key, req.Seed)
		}
		return canonicalBytes(res.Record)
	})
	return stratum, nil
}

// ---- stream --------------------------------------------------------

type streamExpect struct {
	bottlenecks []string
	steps       int
	watchSteps  int
}

type streamWorkload struct {
	watch map[string][]ingest.Watch
	// directives[app] is what the daemon harvests for a stream of app:
	// the "and" of the histRuns stored runs.
	directives map[string]*core.DirectiveSet
	// expect[app][i] is what the daemon must answer for stream i of app.
	expect map[string][]*streamExpect
}

func (wl *streamWorkload) Name() string { return "stream" }
func (wl *streamWorkload) Why() string {
	return "live sample streams (mw, pipeline) into the incremental engine with harvest and a signature watch: ingest, postmortem and the finalize-time save do the work"
}
func (wl *streamWorkload) Spec() topoSpec   { return topoSpec{EvalBudget: 24, IngestQueue: 32} }
func (wl *streamWorkload) Headline() string { return "one stream, start to end-ack" }
func (wl *streamWorkload) Rotation() int    { return len(streamApps) }
func (wl *streamWorkload) WarmOps() int     { return 5 * len(streamApps) }

func histRunID(i int) string { return fmt.Sprintf("zz-hist-%d", i) }

func (wl *streamWorkload) Prefill(w *world) []prefillRecord {
	var out []prefillRecord
	for _, name := range streamApps {
		for i := 0; i < histRuns; i++ {
			st, runID := w.streams[name][i], histRunID(i)
			rec, err := batchDiagnose(st, runID)
			if err != nil {
				// The samples are this process's own simulator output, so
				// only a bug in the benchmark gets here.
				panic(err)
			}
			out = append(out, prefillRecord{rec: rec, want: func() ([]byte, error) {
				r, err := batchDiagnose(st, runID)
				if err != nil {
					return nil, err
				}
				return canonicalBytes(r)
			}})
		}
	}
	return out
}

func (wl *streamWorkload) Prepare(w *world) error {
	if wl.watch != nil {
		return nil
	}
	wl.watch = make(map[string][]ingest.Watch)
	wl.directives = make(map[string]*core.DirectiveSet)
	wl.expect = make(map[string][]*streamExpect)
	st := history.NewMemStore()
	env := harness.NewEnv(st)
	for _, name := range streamApps {
		watch, err := streamWatch(name)
		if err != nil {
			return err
		}
		wl.watch[name] = watch
		var ds *core.DirectiveSet
		for i := 0; i < histRuns; i++ {
			rec, err := batchDiagnose(w.streams[name][i], histRunID(i))
			if err != nil {
				return err
			}
			if err := st.Save(rec); err != nil {
				return err
			}
		}
		recs, err := st.LoadAll(name, "")
		if err != nil {
			return err
		}
		for i, rec := range recs {
			h := env.Harvest(rec, core.HarvestAll())
			if i == 0 {
				ds = h
			} else {
				ds = env.Cache().Intersect(ds, h)
			}
		}
		wl.directives[name] = ds
		// Every stream's reference answer, here and not on first use: the
		// load must not share its processors with the benchmark's checks.
		for _, stream := range w.streams[name] {
			e, err := wl.expected(stream)
			if err != nil {
				return err
			}
			wl.expect[name] = append(wl.expect[name], e)
		}
	}
	return nil
}

// batches splits a stream the way a reporter with -batch 64 ships it.
func batches(samples []ingest.Sample) [][]ingest.Sample {
	var out [][]ingest.Sample
	for len(samples) > 0 {
		n := streamBatch
		if n > len(samples) {
			n = len(samples)
		}
		out = append(out, samples[:n])
		samples = samples[n:]
	}
	return out
}

// newEngine opens an ingest.Engine in this process under the
// directives, budget and watch the daemon gives a stream of st's app.
func (wl *streamWorkload) newEngine(st *sampleStream) *ingest.Engine {
	return ingest.NewEngine(st.App, "", "offline", ingest.EngineOptions{
		Directives: wl.directives[st.App], EvalBudget: wl.Spec().EvalBudget, Watch: wl.watch[st.App],
	})
}

// offlineEngine feeds one whole stream to such an engine, reporting how
// long each Feed took when fed is not nil.
func (wl *streamWorkload) offlineEngine(st *sampleStream, fed func(time.Duration)) (*ingest.Engine, error) {
	eng := wl.newEngine(st)
	for _, b := range batches(st.Samples) {
		t0 := time.Now()
		if err := eng.Feed(b); err != nil {
			return nil, err
		}
		if fed != nil {
			fed(time.Since(t0))
		}
	}
	return eng, nil
}

// expected is the answer the daemon owes for one stream: batch
// postmortem diagnosis of its samples, and the step counts of an offline
// engine fed the same batches.
func (wl *streamWorkload) expected(st *sampleStream) (*streamExpect, error) {
	rec, err := batchDiagnose(st, "expect")
	if err != nil {
		return nil, err
	}
	e := &streamExpect{}
	for _, nr := range rec.Results {
		if nr.State == "true" {
			e.bottlenecks = append(e.bottlenecks, nr.Hyp+" "+nr.Focus)
		}
	}
	sort.Strings(e.bottlenecks)
	eng, err := wl.offlineEngine(st, nil)
	if err != nil {
		return nil, err
	}
	e.steps, e.watchSteps = eng.Steps(), eng.WatchSteps()
	return e, nil
}

// streamChoice is the app and stream index of client c's op idx. The
// app alternates so every two consecutive ops cover both, and an app's
// streams are dealt like the corpus slots: any streamSeeds consecutive
// ops of one app replay each of its streams once.
func streamChoice(w *world, c, idx int) (string, int) {
	ai := (c + idx) % len(streamApps)
	nth := idx / len(streamApps)
	return streamApps[ai], shuffled(w.seed, c, nth/streamSeeds, 300+ai, streamSeeds)[nth%streamSeeds]
}

func (wl *streamWorkload) Op(ctx context.Context, c *clientState, op uint64, idx int) (int, error) {
	w := c.w
	name, si := streamChoice(w, c.idx, idx)
	stratum := 1 + (c.idx+idx)%len(streamApps)
	st := w.streams[name][si]
	runID := fmt.Sprintf("s-c%d-%06d", c.idx, idx)
	start, err := c.ingestStart(ctx, op, &ingest.StartRequest{
		App: name, RunID: runID, Harvest: true, Watch: wl.watch[name],
	})
	if err != nil {
		return stratum, err
	}
	if start.SourceRuns != histRuns {
		return stratum, fmt.Errorf("stream %s %s: harvested from %d runs, want %d", name, runID, start.SourceRuns, histRuns)
	}
	bs := batches(st.Samples)
	for i, b := range bs {
		if err := c.ingestSamples(ctx, op, &ingest.SamplesRequest{App: name, RunID: runID, Seq: i + 1, Samples: b}); err != nil {
			return stratum, err
		}
	}
	end, err := c.ingestEnd(ctx, op, &ingest.EndRequest{App: name, RunID: runID, Seq: len(bs) + 1, Elapsed: streamMaxTime})
	if err != nil {
		return stratum, err
	}
	key := history.RecordKey{App: name, RunID: runID}
	want := wl.expect[name][si]
	switch {
	case end.Saved != key.String():
		return stratum, fmt.Errorf("stream %s: server saved %q", key, end.Saved)
	case end.Samples != len(st.Samples):
		return stratum, fmt.Errorf("stream %s: %d samples acknowledged of %d", key, end.Samples, len(st.Samples))
	case !reflect.DeepEqual(end.Bottlenecks, want.bottlenecks):
		return stratum, fmt.Errorf("stream %s: bottlenecks differ from batch diagnosis of the same samples", key)
	case end.Steps != want.steps || end.WatchSteps != want.watchSteps:
		return stratum, fmt.Errorf("stream %s: steps %d/%d, the offline engine says %d/%d", key, end.Steps, end.WatchSteps, want.steps, want.watchSteps)
	}
	c.acked(key, func() ([]byte, error) {
		rec, err := batchDiagnose(st, runID)
		if err != nil {
			return nil, err
		}
		return canonicalBytes(rec)
	})
	return stratum, nil
}

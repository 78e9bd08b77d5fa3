package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// primaryClasses are the calls client.self_us_p50 is taken over: the
// ones the workload's headline latency is made of.
func primaryClasses(wl workload) map[string]bool {
	switch wl.Name() {
	case "write-durable", "write-replicated":
		return map[string]bool{"client.put_run": true}
	case "read-mixed":
		out := map[string]bool{}
		for c, ok := range readClass {
			if ok {
				out["client."+classNames[c]] = true
			}
		}
		return out
	case "diagnose":
		return map[string]bool{"client.diagnose": true}
	default:
		return map[string]bool{"client.ingest_samples": true}
	}
}

// spanMetrics turns one traced half's spans into the per-layer numbers
// that only a trace can give: self times and the durations of the
// storage seams.
func spanMetrics(wl workload, spans []span, m map[string]float64) {
	self := selfTimes(spans)
	primary := primaryClasses(wl)
	var clientSelf, putSelf, getSelf, gateWait []float64
	durs := map[string][]float64{}
	for i, s := range spans {
		us := float64(s.dur()) / 1e3
		durs[s.Name] = append(durs[s.Name], us)
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		switch {
		case s.Name == "server.handle" && parent == "client.put_run":
			putSelf = append(putSelf, float64(self[i])/1e3)
		case s.Name == "server.handle" && parent == "client.get_run":
			getSelf = append(getSelf, float64(self[i])/1e3)
		case s.Name == "gate.save":
			gateWait = append(gateWait, float64(self[i])/1e3)
		}
		if s.Name == "server.handle" && primary[parent] {
			// The client's self time is its span minus this child.
			clientSelf = append(clientSelf, float64(self[s.Parent])/1e3)
		}
	}
	m["client.self_us_p50"] = median(clientSelf)
	m["server.put_self_us_p50"] = median(putSelf)
	m["server.get_self_us_p50"] = median(getSelf)
	m["replica.gate_wait_us_p50"] = median(gateWait)
	m["replica.gate_wait_us_p99"] = percentile(gateWait, 99)
	m["history.save_us_p50"] = median(durs["history.save"])
	m["history.backend_put_us_p50"] = median(durs["backend.put"])
	m["history.load_us_p50"] = median(durs["history.load"])
	m["history.query_us_p50"] = median(durs["history.query"])
	m["history.persistent_us_p50"] = median(durs["history.persistent"])
}

// traceSlices is how many slices the traced load is cut into, idle and
// recording by turns.
const traceSlices = 8

// runTraced hosts the same stack in this process with the timing
// decorators at its seams and runs the workload half the time with the
// decorators idle and half with them recording. The throughput of the
// one against the other is the tracing overhead; the spans and the
// direct calls of layers.go are the per-layer metrics.
func runTraced(cfg runConfig, wl workload) (*result, error) {
	res := newResult(wl)
	m := res.metrics
	for _, name := range perLayerNames() {
		m[name] = 0
	}
	rec := newRecorder()
	dir := filepath.Join(cfg.work, "traced-"+wl.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := setUp(cfg, wl, dir, rec, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w, topo, checks := st.w, st.topo, st.checks
	stopped := false
	defer func() {
		if !stopped {
			tearDown(topo)
		}
	}()
	if err := wl.Prepare(w); err != nil {
		return nil, err
	}
	res.phase("set-up", t0)
	m["replica.bootstrap_s"] = st.bootstrap.Seconds()

	clients := make([]*clientState, cfg.clients)
	for i := range clients {
		clients[i] = newClient(w, topo.primary.url, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.measure()+150*time.Second)
	defer cancel()

	// Decorators idle and recording alternate in short slices, so that
	// whatever drifts over the run (store size, heap, the machine) falls
	// on both alike and the difference left is the tracing.
	t0 = time.Now()
	slice := cfg.measure() / traceSlices
	var first, last *loadResult
	var lagMax uint64
	var inFlight int64
	for i := 0; i < traceSlices; i++ {
		warm := 0
		if i == 0 {
			warm = wl.WarmOps()
		}
		mode := i % 2 // 0 = idle, 1 = recording
		for _, c := range clients {
			c.tag = mode
		}
		rec.enabled.Store(mode == 1)
		load, err := runLoad(ctx, w, topo, clients, warm, slice, true)
		rec.enabled.Store(false)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = load
		}
		last = load
		lagMax, inFlight = max(lagMax, load.lagMax), max(inFlight, load.inFlight)
	}
	sum := summarize(wl, clients, anyTag)
	res.phase(fmt.Sprintf("warm-up + %d slices, decorators idle/recording", traceSlices), t0)

	t0 = time.Now()
	if topo.follower != nil {
		if err := topo.waitCaughtUp(ctx); err != nil {
			res.fail("%v", err)
		}
		m["replica.catchup_s"] = time.Since(t0).Seconds()
	}
	for _, c := range clients {
		c.closeIdle()
	}
	stopped = true
	if err := tearDown(topo); err != nil {
		res.fail("drain: %v", err)
	}
	res.phase("drain", t0)

	res.attempted, res.failed = sum.attempted, sum.failed
	for _, e := range sum.errs {
		res.fail("%s", e)
	}
	for _, c := range clients {
		checks = append(checks, c.checks...)
	}
	t0 = time.Now()
	reopen, severity, userBytes := gate(topo, checks, res)
	res.phase(fmt.Sprintf("gate (%d acked writes)", len(checks)), t0)
	if res.failed > 0 {
		res.correct = false
	}

	// Client: the per-class split of the round trips, and the
	// resilience counters (a retry or an open breaker would mean the
	// latencies above include back-off sleeps).
	for cls, xs := range sum.byClass {
		m["client."+classNames[cls]+"_us_p50"] = median(xs)
		res.counts["client."+classNames[cls]+"_us_p50"] = len(xs)
	}
	for _, c := range clients {
		cs := c.cl.CounterSnapshot()
		m["client.retries"] += float64(cs.Retries)
		m["client.breaker_opens"] += float64(cs.BreakerOpens)
	}

	spans := rec.take()
	spanMetrics(wl, spans, m)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}

	// Counters from /statsz, as differences over the whole load.
	b, a := first.before, last.after
	m["server.in_flight_max"] = float64(inFlight)
	m["server.rejects_503"] = float64(a.WritesRejected - b.WritesRejected)
	if appends := a.WALAppends - b.WALAppends; appends > 0 {
		// One journal append per acknowledged record; group commit must
		// push this ratio below 1.
		m["history.wal_syncs_per_put"] = float64(a.WALSyncs-b.WALSyncs) / float64(appends)
	}
	if hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses; hits+misses > 0 {
		m["core.harvest_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["ingest.rejected_full"] = float64(a.Ingest.RejectedFull - b.Ingest.RejectedFull)
	m["ingest.dup_batches"] = float64(a.Ingest.DupBatches - b.Ingest.DupBatches)
	m["ingest.harvested_streams"] = float64(a.Ingest.HarvestedStreams - b.Ingest.HarvestedStreams)
	m["replica.lag_seq_max"] = float64(lagMax)
	if r := a.Replication; r != nil && b.Replication != nil {
		m["replica.async_writes"] = float64(r.AsyncWrites - b.Replication.AsyncWrites)
		m["replica.gate_timeouts"] = float64(r.GateTimeouts - b.Replication.GateTimeouts)
		m["replica.fencing_rejects"] = float64(r.FencingRejects - b.Replication.FencingRejects)
		m["replica.elections"] = float64(r.Epoch - b.Replication.Epoch)
		if r.Epoch != b.Replication.Epoch {
			res.fail("an election ran during the load: epoch %d -> %d", b.Replication.Epoch, r.Epoch)
		}
	}

	// History: what the store left on disk.
	m["history.reopen_s"] = reopen.Seconds()
	m["history.fsck_severity"] = float64(severity)
	if userBytes > 0 {
		// The gate regenerated every stored record, so it knows exactly
		// how many bytes the store was handed.
		m["bench.user_bytes_per_put"] = float64(userBytes) / float64(len(checks))
	}

	// Bench: whether the generator or the tracing was in the way.
	// In a closed loop throughput is the inverse of latency, and the
	// median latency of a few seconds of slices is far steadier than
	// their op count, which one 100 ms batch more or less moves by 10%.
	idle := stratifiedMedian(summarize(wl, clients, 0).headline)
	recording := stratifiedMedian(summarize(wl, clients, 1).headline)
	if idle > 0 {
		m["bench.trace_overhead_pct"] = 100 * (recording - idle) / idle
	}

	t0 = time.Now()
	if err := layerMetrics(cfg, wl, w, topo, m); err != nil {
		res.fail("layer metrics: %v", err)
	}
	res.phase("direct-call layers", t0)
	return res, nil
}

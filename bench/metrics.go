package main

// metricDef describes one reported metric: what BENCHMARK.json says of
// it, plus which workloads it is measured on (nil = all; elsewhere a
// per-layer metric reads 0, which is the truth: the layer did no work).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	On     []string
	Help   string
}

// endToEnd is what a user of pcd sees, on every workload. The headline
// latency is per workload: put_run on the write workloads, any read-class
// round trip on read-mixed, the harvest+diagnose pair on diagnose, start
// to end-ack of one stream on stream. Every time among them is at the
// reference pace (ref.go): the wall-clock reading scaled by a reference
// kernel run beside it, because this sandbox's host takes up to half of
// its speed away in spells and no wall-clock reading repeats to better
// than a fifth. The report prints the wall-clock readings too. Every
// bound is the contract's largest: ten-seed sweeps of the paced metrics
// spread 2-7% (README, "Steadiness") on the machine they were built on,
// and the driver's has shown itself noisier.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "corpus + daemon start + prefill + follower attach, at the reference pace; median of the run's three set-ups"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "verified ops per second of the one closed-loop client: a block of the mix over the median block's time, at the reference pace"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "median latency of the workload's headline op (mean of per-job medians where ops differ by job), at the reference pace"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "95th percentile of the headline op's latency, at the reference pace"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25,
		Help: "utime+stime of every pcd child over the measured phase, per op, at the reference pace"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Help: "sum of the pcd children's VmHWM after set-up and the fixed warm-up"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.25,
		Help: "bytes under the primary's store directory after the drain per byte of record handed to it"},
}

var (
	onWrites     = []string{"write-durable", "write-replicated"}
	onReplicated = []string{"write-replicated"}
	onRead       = []string{"read-mixed"}
	onDiagnose   = []string{"diagnose"}
	onStream     = []string{"stream"}
)

// perLayer is one layer's own numbers, from the traced run. Layer =
// package name.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string, on []string, help string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, On: on, Help: help})
	}
	for _, cls := range classNames {
		add("client."+cls+"_us_p50", "us", "lower", nil, "median round trip of "+cls+" calls")
	}
	add("client.self_us_p50", "us", "lower", nil, "headline call's round trip minus its server.handle span: transport + client JSON")
	add("client.retries", "count", "lower", nil, "client retry-ladder re-attempts (expected 0)")
	add("client.breaker_opens", "count", "lower", nil, "client circuit-breaker opens (expected 0)")

	add("server.put_self_us_p50", "us", "lower", nil, "put_run handler span minus its storage spans: decode, validate, encode")
	add("server.get_self_us_p50", "us", "lower", nil, "get_run handler span minus its storage spans")
	add("server.in_flight_max", "count", "lower", nil, "largest /statsz in-flight gauge sampled every 100 ms")
	add("server.rejects_503", "count", "lower", nil, "writes refused while degraded or gated (expected 0)")

	add("replica.gate_wait_us_p50", "us", "lower", onReplicated, "Gate(st).Save span minus the inner Save span")
	add("replica.gate_wait_us_p99", "us", "lower", onReplicated, "99th percentile of the same")
	add("replica.apply_us_p50", "us", "lower", onWrites, "Store.ApplyReplicated called directly on the workload's entries")
	add("replica.lag_seq_max", "count", "lower", onReplicated, "largest primary head - follower ack, sampled every 100 ms")
	add("replica.bootstrap_s", "s", "lower", onReplicated, "follower start after prefill until caught up")
	add("replica.catchup_s", "s", "lower", onReplicated, "end of load until follower ack == primary head")
	add("replica.async_writes", "count", "lower", onReplicated, "writes acknowledged with no follower attached (expected 0)")
	add("replica.gate_timeouts", "count", "lower", onReplicated, "writes refused by the gate (expected 0)")
	add("replica.fencing_rejects", "count", "lower", onReplicated, "stale-epoch RPCs refused (expected 0)")
	add("replica.elections", "count", "lower", onReplicated, "epoch bumps during the load (must be 0)")

	add("history.save_us_p50", "us", "lower", nil, "durable Storage.Save span")
	add("history.save_mem_us_p50", "us", "lower", onWrites, "NewMemStore().Save: validate + MarshalIndent + decode-for-index, no I/O")
	add("history.wal_append_always_us_p50", "us", "lower", onWrites, "StartWAL + Append at -wal-sync always")
	add("history.wal_append_none_us_p50", "us", "lower", onWrites, "the same at -wal-sync none; the difference is the fsync share")
	add("history.backend_put_us_p50", "us", "lower", nil, "Backend.Put span: temp write, fsyncs, rename")
	add("history.wal_syncs_per_put", "ratio", "lower", nil, "/statsz wal_syncs per wal_appends; group commit must push it below 1")
	add("history.load_us_p50", "us", "lower", nil, "Storage.Load span")
	add("history.query_us_p50", "us", "lower", onRead, "Storage.Query span")
	add("history.persistent_us_p50", "us", "lower", onRead, "Storage.PersistentBottlenecks span")
	add("history.reopen_s", "s", "lower", nil, "OpenStoreAuto on the store the workload left: replay + index build")
	add("history.fsck_severity", "count", "lower", nil, "worst FsckStore severity (must be 0)")

	add("core.harvest_us_p50", "us", "lower", append(append([]string{}, onRead...), onDiagnose...), "uncached core.Harvest on each corpus record")
	add("core.harvest_cache_hit_ratio", "ratio", "higher", nil, "HarvestCache hits per lookup during the traced half")

	add("harness.session_us_p50", "us", "lower", onDiagnose, "direct harness.RunSession on the diagnose jobs")
	add("sim.run_us_p50", "us", "lower", onDiagnose, "the same applications simulated bare to the session's end time")
	add("sim.events_per_s", "1/s", "higher", onDiagnose, "EventsProcessed per wall second, bare")
	add("consultant.search_us_p50", "us", "lower", onDiagnose, "session minus bare simulation")
	add("consultant.tested_pairs", "count", "lower", onDiagnose, "pairs instrumented over the direct job set (exact)")
	add("consultant.stall_events", "count", "lower", onDiagnose, "search stalls over the direct job set (exact)")
	add("consultant.vtime_to_all_s", "s", "lower", onDiagnose, "mean virtual seconds until a directed session of the direct job set reported all of its base run's bottlenecks (exact; the paper's Table 1 quantity)")
	add("dyninst.requests", "count", "lower", onDiagnose, "instrumentation requests over the direct job set (exact)")
	add("dyninst.max_cost", "ratio", "lower", onDiagnose, "largest instrumentation cost seen (exact)")

	add("ingest.feed_us_per_batch_p50", "us", "lower", onStream, "Engine.Feed of one 64-sample batch, offline")
	add("ingest.engine_samples_per_s", "1/s", "higher", onStream, "samples per second of Engine.Feed alone: the ceiling for the wire rate")
	add("ingest.finalize_us_p50", "us", "lower", onStream, "Engine.Finalize, which re-runs the batch path")
	add("ingest.steps_per_stream", "count", "lower", onStream, "mean refinement steps over every stream the load draws from (exact)")
	add("ingest.steps_to_signature", "count", "lower", onStream, "mean WatchSteps, harvest-steered, over every stream the load draws from (exact)")
	add("ingest.rejected_full", "count", "lower", onStream, "batches refused with backpressure (expected 0)")
	add("ingest.dup_batches", "count", "lower", onStream, "batch resends acknowledged idempotently (expected 0)")
	add("ingest.harvested_streams", "count", "higher", onStream, "streams that started with harvested directives")
	add("postmortem.build_record_us_p50", "us", "lower", onStream, "batch postmortem diagnosis of one stream's samples")

	add("bench.user_bytes_per_put", "bytes", "lower", nil, "mean stored size of the records the run handed the store")
	add("bench.trace_overhead_pct", "%", "lower", nil, "ops/s lost with the decorators recording, against the same stack with them idle")
	return out
}()

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, d := range perLayer {
		out[i] = d.Name
	}
	return out
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/server"
)

// chaosSeed fixes the fault schedule of the soak test; CI runs with the
// same seed, so a failure here reproduces everywhere.
const chaosSeed = 13

// soakClient returns a resilient client tuned for test time scales.
func soakClient(url string) *client.Client {
	c := client.New(url)
	c.Retry = client.RetryPolicy{Retries: 8, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	c.Breaker = client.BreakerPolicy{Threshold: 5, Cooldown: 2 * time.Millisecond}
	return c
}

// eventually retries op while it fails with ErrUnavailable — the
// typed 503 the client never retries on its own for writes. Each pass
// pokes /healthz so a degraded server gets its recovery probe.
func eventually(t *testing.T, cl *client.Client, what string, op func() error) {
	t.Helper()
	var err error
	for i := 0; i < 500; i++ {
		if err = op(); err == nil {
			return
		}
		if !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("%s: non-transient failure: %v", what, err)
		}
		cl.Health(context.Background())
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: still unavailable after bounded retries: %v", what, err)
}

// runSoakWorkload drives the full client→server→store pipeline — puts,
// diagnoses with save, queries — and returns a canonical byte digest of
// every result that must not depend on injected faults.
// phase, when non-nil, is told when the storm segment begins ("storm")
// and ends ("calm") so the faulty run can crank the injector up
// mid-workload; the baseline passes nil.
func runSoakWorkload(t *testing.T, cl *client.Client, seeds []*harness.SessionResult, phase func(string)) []byte {
	t.Helper()
	ctx := context.Background()
	var digest bytes.Buffer

	// Fan each seed result out into several stored runs, so the store
	// sees a realistic stream of writes (and the injector plenty of
	// chances to bite).
	for _, res := range seeds {
		for i := 0; i < 8; i++ {
			rec := *res.Record
			rec.RunID = fmt.Sprintf("%s-%d", res.Record.RunID, i)
			eventually(t, cl, "put "+rec.RunID, func() error {
				_, err := cl.PutRun(ctx, &rec)
				return err
			})
		}
	}
	// Retire one run per seed again — deletes are writes too.
	for _, res := range seeds {
		ref := res.Record.Version + ":" + res.Record.RunID + "-3"
		eventually(t, cl, "delete "+ref, func() error {
			return cl.DeleteRun(ctx, res.Record.App, ref)
		})
	}

	// A storm segment: the faulty run raises the fault rate enough to
	// trip the server's breaker, so these writes ride the whole
	// degradation ladder — 503s, rejected writes, probe-based recovery.
	if phase != nil {
		phase("storm")
	}
	for _, res := range seeds {
		for i := 0; i < 3; i++ {
			rec := *res.Record
			rec.RunID = fmt.Sprintf("%s-storm%d", res.Record.RunID, i)
			eventually(t, cl, "storm put "+rec.RunID, func() error {
				_, err := cl.PutRun(ctx, &rec)
				return err
			})
		}
	}
	if phase != nil {
		phase("calm")
	}

	// Diagnosis sessions are deterministic per seed, so a re-submitted
	// session after a 503 produces the identical response.
	for _, seed := range []int64{101, 202, 303} {
		var resp *server.DiagnoseResponse
		eventually(t, cl, "diagnose", func() error {
			var err error
			resp, err = cl.Diagnose(ctx, &server.DiagnoseRequest{
				App: "poisson", Version: "B", RunID: "chaos", Seed: seed, Save: true,
			})
			return err
		})
		digest.Write(canon(t, resp))
	}

	runs, err := cl.ListRuns(ctx, "poisson", "")
	if err != nil {
		t.Fatalf("ListRuns: %v", err)
	}
	digest.Write(canon(t, runs))
	qr, err := cl.QueryRaw(ctx, client.QueryParams{App: "poisson", State: "true"})
	if err != nil {
		t.Fatalf("QueryRaw: %v", err)
	}
	digest.Write(qr)
	pr, err := cl.Persistent(ctx, "poisson", "", 2)
	if err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	digest.Write(canon(t, pr))
	return digest.Bytes()
}

// chaosStore opens a journaled store at -wal-sync always — the shape
// pcd ships — in a fresh directory, writing through faults when non-nil,
// installed as pcd -fault-* installs it.
func chaosStore(t *testing.T, faults *history.Faults) *history.Store {
	t.Helper()
	o := history.DurableOptions{Create: true, WAL: true}
	if faults != nil {
		o.Faults = func(int) *history.Faults { return faults }
	}
	st, err := history.OpenStoreDurable(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// The chaos soak's fault mixes. Every call of a write draws — the
// journal frame and its sync, the staged file's create, bytes and sync,
// the rename, the directory sync — so a calm write fails about one time
// in seven and a storm write five in six.
var (
	chaosCalm  = history.FaultConfig{Seed: chaosSeed, ErrRate: 0.02, TornWriteRate: 0.03}
	chaosStorm = history.FaultConfig{Seed: chaosSeed, ErrRate: 0.3, TornWriteRate: 0.05}
)

// TestChaosSoak is the capstone: the same workload runs against a
// fault-free daemon and against one whose disk — record files and
// journal, through the commit that ships — injects a seeded fault mix
// (errors and torn writes), and the final bottleneck and query output
// must be byte-identical. The resilience ladder — client retries, typed
// 503s, degraded mode with probe-based recovery, the compensation of a
// write the disk refused — is what closes the gap.
func TestChaosSoak(t *testing.T) {
	cfgA := harness.DefaultSessionConfig()
	cfgA.RunID = "base"
	resA := runSession(t, "poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000}, cfgA)
	resB := runSession(t, "poisson", "B", app.Options{NodeOffset: 5, PidBase: 4100}, cfgA)
	seeds := []*harness.SessionResult{resA, resB}

	opts := server.Options{
		Sessions:         2,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Millisecond,
	}

	// Fault-free baseline.
	tsGood := httptest.NewServer(server.New(harness.NewEnv(chaosStore(t, nil)), opts).Handler())
	defer tsGood.Close()
	want := runSoakWorkload(t, soakClient(tsGood.URL), seeds, nil)

	// The same workload with the calm mix on every disk call, and the
	// storm mix for the storm segment.
	faults := history.NewFaults(chaosCalm)
	stBad := chaosStore(t, faults)
	srvBad := server.New(harness.NewEnv(stBad), opts)
	tsBad := httptest.NewServer(srvBad.Handler())
	defer tsBad.Close()
	clBad := soakClient(tsBad.URL)
	got := runSoakWorkload(t, clBad, seeds, func(p string) {
		if p == "storm" {
			faults.SetConfig(chaosStorm)
			return
		}
		faults.SetConfig(chaosCalm)
	})

	if !bytes.Equal(got, want) {
		t.Errorf("soak output diverged under faults:\n got: %s\nwant: %s", got, want)
	}

	// The run must actually have been chaotic: the injector fired, on the
	// journal too — a group whose sync failed was written, compensated and
	// never synced, so the journal counts more appends than syncs — and
	// the server observed backend trouble.
	fc := faults.Counters()
	if fc.Injected == 0 || fc.TornWrites == 0 {
		t.Errorf("fault injector never fired: %+v (workload too small or seed too kind)", fc)
	}
	if ws := stBad.WALStats(); ws.Appends <= ws.Syncs {
		t.Errorf("no journal sync failed: %+v", ws)
	}
	stats, err := clBad.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendFaults == 0 {
		t.Errorf("server observed no backend faults: %+v", stats)
	}
	// The storm must have walked the whole ladder: degraded transitions,
	// refused writes, recovery probes — and ended healthy.
	if stats.BreakerOpens == 0 || stats.WritesRejected == 0 || stats.BackendProbes == 0 {
		t.Errorf("degradation ladder not exercised: %+v", stats)
	}
	if stats.Degraded {
		t.Errorf("server still degraded after the workload: %+v", stats)
	}
	t.Logf("chaos: injector %+v; journal %+v; server faults=%d rejected=%d opens=%d probes=%d; client %+v",
		fc, stBad.WALStats(), stats.BackendFaults, stats.WritesRejected, stats.BreakerOpens,
		stats.BackendProbes, clBad.CounterSnapshot())
}

// TestChaosOutageRecovery is the acceptance walk at the wire level, under
// the disk's fault injector: a total outage flips /healthz to "degraded",
// writes to typed 503s with a Retry-After, and a client with a breaker
// to an open breaker that refuses without touching the network; when the
// disk heals, the health probe returns the daemon to "ok" with no
// restart, the client's next probe closes its breaker, and writes flow
// again.
func TestChaosOutageRecovery(t *testing.T) {
	cfg := harness.DefaultSessionConfig()
	cfg.RunID = "base"
	res := runSession(t, "poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000}, cfg)

	faults := history.NewFaults(history.FaultConfig{Seed: 1})
	srv := server.New(harness.NewEnv(chaosStore(t, faults)), server.Options{
		Sessions: 1, BreakerThreshold: 1, BreakerCooldown: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	cl := client.New(ts.URL)
	if _, err := cl.PutRun(ctx, res.Record); err != nil {
		t.Fatalf("pre-outage put: %v", err)
	}
	const cooldown = 200 * time.Millisecond
	brk := client.New(ts.URL)
	brk.Breaker = client.BreakerPolicy{Threshold: 2, Cooldown: cooldown}

	// Total outage: the write fails, is typed, and carries Retry-After.
	faults.SetConfig(history.FaultConfig{ErrRate: 1})
	_, err := cl.PutRun(ctx, res.Record)
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("outage put error = %v, want ErrUnavailable", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("outage put error %v carries no Retry-After", err)
	}

	// Two refused writes open the client's breaker, which then refuses
	// without asking the server.
	for i := 0; i < 2; i++ {
		if _, err := brk.PutRun(ctx, res.Record); !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("outage put %d through the breaker = %v, want ErrUnavailable", i, err)
		}
	}
	opened := time.Now()
	requests := brk.CounterSnapshot().Requests
	if _, err := brk.PutRun(ctx, res.Record); !errors.Is(err, client.ErrBreakerOpen) {
		t.Fatalf("put with the breaker open = %v, want ErrBreakerOpen", err)
	}
	if c := brk.CounterSnapshot(); c.BreakerOpens != 1 || c.Requests != requests {
		t.Fatalf("client counters %+v: want one open and no request sent while open", c)
	}

	// The daemon is degraded but still answers reads.
	if status, err := cl.Health(ctx); err != nil || status != "degraded" {
		t.Fatalf("health during outage = %q, %v, want degraded", status, err)
	}
	if runs, err := cl.ListRuns(ctx, "poisson", ""); err != nil || len(runs) != 1 {
		t.Fatalf("degraded reads broken: %v, %v", runs, err)
	}

	// Heal the disk; health probes bring the daemon back without a
	// restart.
	faults.SetConfig(history.FaultConfig{})
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, err := cl.Health(ctx)
		if err == nil && status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered: status %q, %v", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl.PutRun(ctx, res.Record); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}

	// Past its cooldown the client's breaker admits a probe; its success
	// closes the breaker, and the next call goes straight through.
	time.Sleep(time.Until(opened.Add(cooldown)))
	for i := 0; i < 2; i++ {
		if _, err := brk.PutRun(ctx, res.Record); err != nil {
			t.Fatalf("put %d after the breaker's cooldown: %v", i, err)
		}
	}
	if c := brk.CounterSnapshot(); c.BreakerOpens != 1 || c.BreakerRejects != 1 {
		t.Errorf("client counters %+v: want the breaker opened once, refused once, closed", c)
	}
}

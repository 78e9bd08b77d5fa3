package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/history"
)

// shortSuite builds a seconds-scale scenario for tests. The mix covers
// every op class except diagnose by default (sessions dominate runtime);
// tests that want sessions add the weight themselves.
func shortSuite(name, arrival string) *Scenario {
	return &Scenario{
		Name:     name,
		Duration: 600 * time.Millisecond,
		Arrival:  arrival,
		Rate:     300,
		Workers:  6,
		Seed:     1234,
		Prefill:  12,
		WALSync:  "interval",
		Mix: map[string]float64{
			"get": 6, "put": 3, "putbatch": 1, "query": 2,
			"compare": 1, "harvest": 1, "stream": 1,
		},
	}
}

func TestRunSuiteClosedLoop(t *testing.T) {
	sc := shortSuite("closed-smoke", "closed")
	sc.Mix["diagnose"] = 0.2
	sc.DiagnoseMaxTime = 500
	rep, err := RunSuite(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Passed(); err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.OpsPerSec <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors against a fault-free server", rep.Errors)
	}
	for _, cr := range rep.Classes {
		if cr.Ops > 0 && cr.P50Ms <= 0 {
			t.Errorf("class %s: %d ops but p50 %v", cr.Class, cr.Ops, cr.P50Ms)
		}
		if cr.P50Ms > cr.P99Ms || cr.P99Ms > cr.P999Ms {
			t.Errorf("class %s: quantiles out of order: %v/%v/%v", cr.Class, cr.P50Ms, cr.P99Ms, cr.P999Ms)
		}
	}
	if rep.Server == nil {
		t.Fatal("no server delta")
	}
	// The statsz op counters must account for the traffic: the put class
	// plus the prefill writes all land on put_run.
	var putOps uint64
	for _, cr := range rep.Classes {
		if cr.Class == "put" {
			putOps = cr.Ops
		}
	}
	if got := rep.Server.OpCounts["put_run"]; got < putOps {
		t.Errorf("op_counts[put_run] = %d, want >= %d measured puts", got, putOps)
	}
	if rep.Verify.AckedWrites < sc.Prefill {
		t.Errorf("AckedWrites = %d, want at least the %d prefill records", rep.Verify.AckedWrites, sc.Prefill)
	}
	if rep.Verify.StoreHash == "" || rep.Verify.OpLogHash == "" {
		t.Error("missing verification hashes")
	}
}

// TestRunSuiteDeterministicReplay is the load-harness determinism
// regression: two runs of the same (suite, seed) against fresh pcd
// instances execute the identical op sequence and converge to identical
// final store contents, compared via the canonical encoding hash.
// Open-loop only — the executed op count of a closed loop depends on
// server speed, and fault assignment depends on request interleaving,
// so the replay contract is scoped to fault-free open-loop suites.
func TestRunSuiteDeterministicReplay(t *testing.T) {
	run := func() *SuiteReport {
		sc := shortSuite("replay", "open")
		rep, err := RunSuite(sc, Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Passed(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.OpLog) == 0 {
		t.Fatal("empty op log")
	}
	if len(a.OpLog) != len(b.OpLog) {
		t.Fatalf("op counts differ: %d vs %d", len(a.OpLog), len(b.OpLog))
	}
	for i := range a.OpLog {
		if a.OpLog[i] != b.OpLog[i] {
			t.Fatalf("op %d differs: %q vs %q", i, a.OpLog[i], b.OpLog[i])
		}
	}
	if a.Verify.OpLogHash != b.Verify.OpLogHash {
		t.Errorf("op log hashes differ: %s vs %s", a.Verify.OpLogHash, b.Verify.OpLogHash)
	}
	if a.Verify.StoreRecords != b.Verify.StoreRecords {
		t.Errorf("store sizes differ: %d vs %d", a.Verify.StoreRecords, b.Verify.StoreRecords)
	}
	if a.Verify.StoreHash != b.Verify.StoreHash {
		t.Errorf("store hashes differ:\n  %s\n  %s", a.Verify.StoreHash, b.Verify.StoreHash)
	}
}

// TestRunSuiteChaos drives traffic into a fault-injected store and holds
// the correctness bar anyway: whatever the injected faults did, every
// acknowledged write must read back intact and the quiesced store must
// be fsck-clean.
func TestRunSuiteChaos(t *testing.T) {
	sc := shortSuite("chaos", "closed")
	sc.BreakerCooldown = 100 * time.Millisecond
	sc.Faults = history.FaultConfig{
		Seed:          77,
		ErrRate:       0.05,
		TornWriteRate: 0.03,
	}
	rep, err := RunSuite(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Passed(); err != nil {
		t.Fatal(err)
	}
	if rep.Verify.FsckSeverity != 0 {
		t.Errorf("fsck severity %d after chaos, want 0: %v", rep.Verify.FsckSeverity, rep.Verify.FsckFindings)
	}
}

// TestFencedAnswersFailTheSuite: an answer that unwraps to
// client.ErrFenced is counted as fenced — beside errors and unavailable,
// in neither — and one of them fails a suite that is otherwise clean: no
// suite scripts the death of a whole primary, so none expects a 409.
func TestFencedAnswersFailTheSuite(t *testing.T) {
	col := newCollector([]string{"put"})
	col.record("put", time.Millisecond, nil)
	col.record("put", time.Millisecond, fmt.Errorf("put run: %w", client.ErrFenced))
	col.record("put", time.Millisecond, fmt.Errorf("put run: %w", client.ErrUnavailable))
	col.record("put", time.Millisecond, errors.New("boom"))
	cc := col.classes["put"]
	if cc.ops != 4 || cc.fenced != 1 || cc.unavail != 1 || cc.errs != 1 {
		t.Fatalf("counts = %d ops, %d fenced, %d unavailable, %d errors; want 4/1/1/1", cc.ops, cc.fenced, cc.unavail, cc.errs)
	}
	if cr := classReport("put", cc.hist, cc.ops, cc.errs, cc.unavail, cc.fenced, 1); cr.Fenced != 1 {
		t.Errorf("class report carries fenced = %d, want 1", cr.Fenced)
	}
	rep := &SuiteReport{Suite: "s", Ops: 4, OpsPerSec: 4}
	if err := rep.Passed(); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	rep.Fenced = 1
	if err := rep.Passed(); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("Passed() with a fenced answer = %v, want it refused", err)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/harness"
	"repro/internal/history"
)

// White-box tests of the session journal and the checkpoint wiring —
// the pieces the HTTP-level tests in sessions_test.go exercise only
// indirectly.

func newJournal(t *testing.T) *sessionJournal {
	t.Helper()
	j, err := openSessionJournal(filepath.Join(t.TempDir(), SessionsDirName))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSessionJournalLifecycle(t *testing.T) {
	j := newJournal(t)
	ctx := context.Background()
	req := json.RawMessage(`{"app":"poisson"}`)

	resp, owner, err := j.begin(ctx, "k1", req)
	if err != nil || !owner || resp != nil {
		t.Fatalf("first begin = (%v, owner=%v, %v), want owner of a fresh key", resp, owner, err)
	}
	rec, err := j.read("k1")
	if err != nil || rec == nil || rec.State != sessionPending {
		t.Fatalf("pending record after begin = %+v, %v", rec, err)
	}

	want := []byte(`{"run_id":"r"}` + "\n")
	if err := j.finish("k1", req, want); err != nil {
		t.Fatal(err)
	}
	resp, owner, err = j.begin(ctx, "k1", req)
	if err != nil || owner {
		t.Fatalf("begin after finish = (owner=%v, %v), want a journal hit", owner, err)
	}
	if !bytes.Equal(resp, want) {
		t.Fatalf("journal hit returned %q, want the stored bytes %q", resp, want)
	}
}

func TestSessionJournalFailReopensKey(t *testing.T) {
	j := newJournal(t)
	ctx := context.Background()
	req := json.RawMessage(`{}`)
	if _, owner, err := j.begin(ctx, "k", req); err != nil || !owner {
		t.Fatalf("begin: owner=%v err=%v", owner, err)
	}
	j.fail("k")
	if rec, err := j.read("k"); err != nil || rec != nil {
		t.Fatalf("record after fail = %+v, %v; want removed", rec, err)
	}
	// The key is free again: the next begin owns it.
	if _, owner, err := j.begin(ctx, "k", req); err != nil || !owner {
		t.Fatalf("begin after fail: owner=%v err=%v", owner, err)
	}
}

func TestSessionJournalConcurrentWaiters(t *testing.T) {
	j := newJournal(t)
	ctx := context.Background()
	req := json.RawMessage(`{}`)
	if _, owner, err := j.begin(ctx, "k", req); err != nil || !owner {
		t.Fatalf("begin: owner=%v err=%v", owner, err)
	}

	want := []byte("stored response\n")
	const waiters = 8
	got := make([][]byte, waiters)
	owned := make([]bool, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, owner, err := j.begin(ctx, "k", req)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			got[i], owned[i] = resp, owner
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters block on the in-flight channel
	if err := j.finish("k", req, want); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if owned[i] {
			t.Fatalf("waiter %d became owner of a finished key", i)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("waiter %d got %q, want %q", i, got[i], want)
		}
	}
}

func TestSessionJournalWaiterHonorsContext(t *testing.T) {
	j := newJournal(t)
	req := json.RawMessage(`{}`)
	if _, owner, err := j.begin(context.Background(), "k", req); err != nil || !owner {
		t.Fatalf("begin: owner=%v err=%v", owner, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := j.begin(ctx, "k", req); err != context.DeadlineExceeded {
		t.Fatalf("blocked begin = %v, want context.DeadlineExceeded", err)
	}
	j.fail("k") // release the owner claim so nothing leaks
}

func TestSessionJournalOrphans(t *testing.T) {
	j := newJournal(t)
	ctx := context.Background()
	for _, key := range []string{"b", "a"} {
		if _, owner, err := j.begin(ctx, key, json.RawMessage(`{"run_id":"`+key+`"}`)); err != nil || !owner {
			t.Fatalf("begin %s: owner=%v err=%v", key, owner, err)
		}
	}
	if err := j.finish("done-key", json.RawMessage(`{}`), []byte("resp")); err != nil {
		t.Fatal(err)
	}
	// A torn entry — the crash hit mid-write before PR-5's atomic rename
	// existed, or the disk lied — is dropped, not resumed.
	if err := os.WriteFile(filepath.Join(j.dir, "torn.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	orphans, err := j.orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 2 || orphans[0].Key != "a" || orphans[1].Key != "b" {
		t.Fatalf("orphans = %+v, want pending keys [a b] in key order", orphans)
	}
	if _, err := os.Stat(filepath.Join(j.dir, "torn.json")); !os.IsNotExist(err) {
		t.Fatalf("torn journal entry survived orphan listing: %v", err)
	}
}

func TestSessionJournalCheckpoint(t *testing.T) {
	j := newJournal(t)
	ctx := context.Background()
	req := json.RawMessage(`{"app":"poisson"}`)
	if _, owner, err := j.begin(ctx, "k", req); err != nil || !owner {
		t.Fatalf("begin: owner=%v err=%v", owner, err)
	}
	ck := harness.SessionCheckpoint{RunID: "run1", Time: 2500, TestedPairs: 4, Frontier: []string{"a", "b"}}
	j.checkpoint("k", ck)
	rec, err := j.read("k")
	if err != nil || rec == nil || rec.Checkpoint == nil {
		t.Fatalf("pending record after checkpoint = %+v, %v", rec, err)
	}
	if rec.Checkpoint.Time != 2500 || rec.Checkpoint.TestedPairs != 4 || len(rec.Checkpoint.Frontier) != 2 {
		t.Fatalf("stored checkpoint = %+v, want the snapshot written", rec.Checkpoint)
	}
	// Checkpoints only decorate pending records; a finished key ignores
	// them and the done record carries no frontier.
	if err := j.finish("k", req, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	j.checkpoint("k", ck)
	rec, err = j.read("k")
	if err != nil || rec == nil || rec.State != sessionDone || rec.Checkpoint != nil {
		t.Fatalf("done record = %+v, %v; want state done with no checkpoint", rec, err)
	}
}

func TestEscapeKeyDistinct(t *testing.T) {
	keys := []string{
		"abc", "a/b", "a%2Fb", "a%2fb", "a b", "A.b_c",
		"key", "Key", "KEY", // distinct keys on every filesystem, case-insensitive ones included
		"../../etc/passwd",
	}
	seen := map[string]string{}
	for _, k := range keys {
		e := escapeKey(k)
		if filepath.Base(e) != e || e == "" {
			t.Fatalf("escapeKey(%q) = %q is not a safe basename", k, e)
		}
		// The output must be caseless: on case-insensitive filesystems
		// (macOS default) names differing only in case are the same file,
		// and a collision answers one key with another's stored response.
		if e != strings.ToLower(e) {
			t.Fatalf("escapeKey(%q) = %q contains uppercase; journal names must be caseless", k, e)
		}
		if prev, dup := seen[e]; dup {
			t.Fatalf("escapeKey collision: %q and %q both map to %q", prev, k, e)
		}
		seen[e] = k
	}
}

// TestResumeSessionsKeepsOrphanOnTransientFailure: a crash-orphaned
// session whose resume fails transiently (store degraded at startup,
// timeout, gate saturation) must stay journaled as pending — deleting
// it would break the durability promise for any client that does not
// happen to resend. A later resume with the fault cleared recovers it.
func TestResumeSessionsKeepsOrphanOnTransientFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := history.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(harness.NewEnv(st), Options{Sessions: 1})
	if err := s.EnableSessionJournal(filepath.Join(dir, SessionsDirName), 0); err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"app":"poisson","version":"A","max_time":5000}`)
	if err := s.journal.write(&sessionRecord{Key: "orphan", State: sessionPending, Request: req}); err != nil {
		t.Fatal(err)
	}

	fail := true
	s.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		if fail {
			return nil, &history.BackendError{Op: "get", Err: errors.New("store still degraded")}
		}
		return &harness.SessionResult{Quiesced: true}, nil
	}

	n, err := s.ResumeSessions(context.Background())
	if err != nil || n != 0 {
		t.Fatalf("resume under transient failure = (%d, %v), want (0, nil)", n, err)
	}
	rec, err := s.journal.read("orphan")
	if err != nil || rec == nil || rec.State != sessionPending {
		t.Fatalf("record after transient resume failure = %+v, %v; want still pending", rec, err)
	}

	// The in-flight claim was released with the record intact: once the
	// fault clears, the next resume owns the key and finishes it.
	fail = false
	n, err = s.ResumeSessions(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("resume after fault cleared = (%d, %v), want (1, nil)", n, err)
	}
	rec, err = s.journal.read("orphan")
	if err != nil || rec == nil || rec.State != sessionDone {
		t.Fatalf("record after recovery = %+v, %v; want done", rec, err)
	}
}

// TestDiagnoseCheckpointsFlowToJournal proves the full wiring: a keyed
// diagnose run snapshots its search frontier into the pending journal
// record at the configured cadence, and the checkpoints do not perturb
// the session — the response is byte-identical to an un-journaled run.
func TestDiagnoseCheckpointsFlowToJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := history.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(harness.NewEnv(st), Options{Sessions: 1})
	// A tight cadence: the poisson search can quiesce in a few hundred
	// virtual seconds, and a checkpoint only fires while it is running.
	if err := s.EnableSessionJournal(filepath.Join(dir, SessionsDirName), 10); err != nil {
		t.Fatal(err)
	}
	req := &DiagnoseRequest{App: "poisson", Version: "A", MaxTime: 5000, IdempotencyKey: "ck"}
	raw, _ := json.Marshal(req)

	ctx := context.Background()
	if _, owner, err := s.journal.begin(ctx, "ck", json.RawMessage(raw)); err != nil || !owner {
		t.Fatalf("begin: owner=%v err=%v", owner, err)
	}
	resp, derr := s.runDiagnose(ctx, req, "ck")
	if derr != nil {
		t.Fatal(derr)
	}
	rec, err := s.journal.read("ck")
	if err != nil || rec == nil {
		t.Fatalf("journal record after run = %+v, %v", rec, err)
	}
	if rec.Checkpoint == nil {
		t.Fatal("session ran with CheckpointEvery=10 but journaled no checkpoint")
	}
	if rec.Checkpoint.Time < 10 || rec.Checkpoint.Time > 5000 {
		t.Fatalf("checkpoint time = %v, want within the session's span", rec.Checkpoint.Time)
	}
	for i := 1; i < len(rec.Checkpoint.Frontier); i++ {
		if rec.Checkpoint.Frontier[i-1] > rec.Checkpoint.Frontier[i] {
			t.Fatalf("frontier not sorted: %v", rec.Checkpoint.Frontier)
		}
	}
	s.journal.fail("ck")

	// Determinism guard: the same request without journaling produces the
	// byte-identical response.
	plain, derr := s.runDiagnose(ctx, &DiagnoseRequest{App: "poisson", Version: "A", MaxTime: 5000}, "")
	if derr != nil {
		t.Fatal(derr)
	}
	a, err := MarshalCanonical(resp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalCanonical(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpointing changed the session outcome:\n got: %s\nwant: %s", a, b)
	}
}

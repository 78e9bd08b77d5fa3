package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
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

// White-box tests of the session journal and of diagnose's journaling —
// the pieces the HTTP-level tests in sessions_http_test.go exercise only
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
	req := json.RawMessage(`{"app":"poisson","version":"A","max_time":5000,"save":true}`)
	if err := s.journal.write(&sessionRecord{Key: "orphan", State: sessionPending, Request: req}); err != nil {
		t.Fatal(err)
	}

	degrade(s)
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
	s.brk.Success()
	n, err = s.ResumeSessions(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("resume after fault cleared = (%d, %v), want (1, nil)", n, err)
	}
	rec, err = s.journal.read("orphan")
	if err != nil || rec == nil || rec.State != sessionDone {
		t.Fatalf("record after recovery = %+v, %v; want done", rec, err)
	}
}

// degrade opens s's breaker, as consecutive backend failures do: every
// store write is then refused with *unavailableError until the breaker
// closes again (s.brk.Success).
func degrade(s *Server) {
	for !s.isDegraded() {
		s.observeStoreErr(&history.BackendError{Op: "put", Err: errors.New("store degraded")})
	}
}

// newJournaledServer is a server over an in-memory store with its
// session journal in a temporary directory.
func newJournaledServer(t *testing.T) *Server {
	t.Helper()
	s := New(harness.NewEnv(history.NewMemStore()), Options{Sessions: 1})
	if err := s.EnableSessionJournal(filepath.Join(t.TempDir(), SessionsDirName), 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// writeOrphan journals key as a pending request, the way a process
// that died mid-session leaves it.
func writeOrphan(t *testing.T, s *Server, key string) {
	t.Helper()
	req := json.RawMessage(`{"app":"poisson","version":"A","max_time":5000,"idempotency_key":"` + key + `"}`)
	if err := s.journal.write(&sessionRecord{Key: key, State: sessionPending, Request: req}); err != nil {
		t.Fatal(err)
	}
}

func journalState(t *testing.T, s *Server, key string) string {
	t.Helper()
	rec, err := s.journal.read(key)
	if err != nil || rec == nil {
		t.Fatalf("journal record %q = %+v, %v", key, rec, err)
	}
	return rec.State
}

func quiescedSession(context.Context, *app.App, harness.SessionConfig) (*harness.SessionResult, error) {
	return &harness.SessionResult{Quiesced: true}, nil
}

// serveDiagnose serves one diagnose body through the handler.
func serveDiagnose(s *Server, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/v1/diagnose", strings.NewReader(body)))
	return rr
}

// TestDiagnoseKeyedMatchesUnkeyed is the journal's determinism guard: a
// keyed request, journaled and run, answers byte for byte what the same
// request sent without a key answers, and the journal stores those
// bytes.
func TestDiagnoseKeyedMatchesUnkeyed(t *testing.T) {
	s := newJournaledServer(t)
	ctx := context.Background()
	req := &DiagnoseRequest{App: "poisson", Version: "A", MaxTime: 5000, IdempotencyKey: "ck"}
	raw, _ := json.Marshal(req)
	keyed, err := s.diagnose(ctx, req, raw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.journal.read("ck")
	if err != nil || rec == nil || rec.State != sessionDone || !bytes.Equal(rec.Response, keyed) {
		t.Fatalf("journal record after run = %+v, %v; want done with the response bytes", rec, err)
	}

	plain := &DiagnoseRequest{App: "poisson", Version: "A", MaxTime: 5000}
	raw, _ = json.Marshal(plain)
	unkeyed, err := s.diagnose(ctx, plain, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keyed, unkeyed) {
		t.Fatalf("journaling changed the session outcome:\n got: %s\nwant: %s", keyed, unkeyed)
	}
}

// TestShutdownDrainsResumedSession: a resumed orphan is an in-flight
// diagnose like a live one, so a shutdown whose deadline falls while it
// runs reports the deadline instead of returning at once, and the
// session still finishes and is journaled done.
func TestShutdownDrainsResumedSession(t *testing.T) {
	s := newJournaledServer(t)
	writeOrphan(t, s, "orphan")
	started, release := make(chan struct{}), make(chan struct{})
	s.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		close(started)
		<-release
		return quiescedSession(ctx, a, cfg)
	}
	resumed := make(chan error, 1)
	go func() {
		_, err := s.ResumeSessions(context.Background())
		resumed <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown during a resumed session = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := <-resumed; err != nil {
		t.Fatal(err)
	}
	if got := journalState(t, s, "orphan"); got != sessionDone {
		t.Fatalf("resumed record after its session finished is %q, want done", got)
	}
}

// TestResumeSessionsStopsWhenDraining: once a drain has begun, resume
// admits nothing — no session runs and every orphan stays pending for
// the next start.
func TestResumeSessionsStopsWhenDraining(t *testing.T) {
	s := newJournaledServer(t)
	for _, key := range []string{"a", "b"} {
		writeOrphan(t, s, key)
	}
	ran := 0
	s.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
		ran++
		return quiescedSession(ctx, a, cfg)
	}
	s.BeginDrain()
	n, err := s.ResumeSessions(context.Background())
	if err != nil || n != 0 || ran != 0 {
		t.Fatalf("resume while draining = (%d, %v) with %d sessions run, want (0, nil) and none", n, err, ran)
	}
	for _, key := range []string{"a", "b"} {
		if got := journalState(t, s, key); got != sessionPending {
			t.Fatalf("orphan %q after a draining resume is %q, want pending", key, got)
		}
	}
}

// TestDiagnoseTransientFailureKeepsRecord: a live keyed request whose
// save is refused by a degraded store answers 503 and keeps its record
// pending — the same rule a resume follows — so a later resume
// finishes it.
func TestDiagnoseTransientFailureKeepsRecord(t *testing.T) {
	s := newJournaledServer(t)
	degrade(s)
	rr := serveDiagnose(s, `{"app":"poisson","version":"A","max_time":5000,"save":true,"idempotency_key":"live"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("save refused by a degraded store answered %d: %s, want 503", rr.Code, rr.Body)
	}
	if got := journalState(t, s, "live"); got != sessionPending {
		t.Fatalf("record after a transient failure is %q, want pending", got)
	}

	s.brk.Success()
	n, err := s.ResumeSessions(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("resume after the fault cleared = (%d, %v), want (1, nil)", n, err)
	}
	if got := journalState(t, s, "live"); got != sessionDone {
		t.Fatalf("record after resume is %q, want done", got)
	}
}

// TestDiagnoseKeyLengthBound: a key whose journal file name would pass
// the 255-byte file-name limit is refused with 400 before anything is
// journaled, and the refusal does not name the server's directories; a
// key at the limit is journaled and served.
func TestDiagnoseKeyLengthBound(t *testing.T) {
	s := newJournaledServer(t)
	s.session = quiescedSession
	for _, tc := range []struct {
		key  string
		want int
	}{
		{strings.Repeat("a", 250), http.StatusOK},         // a.json: 255 bytes
		{strings.Repeat("K", 83) + "a", http.StatusOK},    // %4b escapes: 255 bytes
		{strings.Repeat("a", 251), http.StatusBadRequest}, // 256 bytes
		{strings.Repeat("K", 84), http.StatusBadRequest},  // 257 bytes
		{strings.Repeat("K", 100), http.StatusBadRequest}, // 305 bytes
	} {
		rr := serveDiagnose(s, `{"app":"poisson","version":"A","max_time":5000,"idempotency_key":"`+tc.key+`"}`)
		if rr.Code != tc.want {
			t.Fatalf("key of %d bytes (%d escaped) answered %d: %s, want %d",
				len(tc.key), len(escapeKey(tc.key)), rr.Code, rr.Body, tc.want)
		}
		if tc.want != http.StatusOK {
			if strings.Contains(rr.Body.String(), s.journal.dir) {
				t.Fatalf("refusal names the journal directory: %s", rr.Body)
			}
			if _, err := os.Stat(s.journal.path(tc.key)); err == nil {
				t.Fatalf("refused key %q was journaled", tc.key)
			}
			continue
		}
		if got := journalState(t, s, tc.key); got != sessionDone {
			t.Fatalf("key of %d escaped bytes journaled %q, want done", len(escapeKey(tc.key)), got)
		}
	}
}

// FuzzSessionJournalOrphans feeds arbitrary bytes to the journal's one
// disk-facing decoder as sessions/k.json: orphans never panics, drops a
// file that does not decode, and lists only pending records of the key
// that names the file; resuming them never panics and leaves no key
// claimed and no diagnose in flight, whether the session succeeds or
// fails transiently or for good.
func FuzzSessionJournalOrphans(f *testing.F) {
	for _, seed := range []string{
		`{"key":"k","state":"pending","request":{"app":"poisson","version":"A","max_time":5000}}`,
		`{"key":"k","state":"pending","request":{"app":"poisson","version":"A","save":true}}`,
		`{"key":"k","state":"pending","request":{"app":"poisson"},"checkpoint":{"time":2500,"frontier":["x"]}}`,
		`{"key":"k","state":"done","request":{},"response":"e30K"}`,
		`{"key":"other","state":"pending","request":{"app":"poisson"}}`,
		`{"key":"k","state":"pending","request":"not an object"}`,
		`{"key":"k","state":"pending"}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newJournaledServer(t)
		path := filepath.Join(s.journal.dir, "k.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		orphans, err := s.journal.orphans()
		if err != nil {
			t.Fatal(err)
		}
		if json.Unmarshal(data, &sessionRecord{}) != nil {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("undecodable journal file survived: %v", err)
			}
		}
		for _, rec := range orphans {
			if rec.State != sessionPending || rec.Key != "k" {
				t.Fatalf("orphans listed %q in state %q, want only pending records of k", rec.Key, rec.State)
			}
		}

		s.session = func(ctx context.Context, a *app.App, cfg harness.SessionConfig) (*harness.SessionResult, error) {
			switch len(data) % 3 {
			case 0:
				return &harness.SessionResult{Quiesced: true,
					Record: &history.RunRecord{App: a.Name, Version: a.Version, RunID: cfg.RunID}}, nil
			case 1:
				return nil, &history.BackendError{Op: "get", Err: errors.New("transient")}
			}
			return nil, errors.New("permanent")
		}
		if _, err := s.ResumeSessions(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(s.journal.inflight) != 0 || s.active != 0 {
			t.Fatalf("resume left %d keys claimed and %d diagnoses in flight", len(s.journal.inflight), s.active)
		}
	})
}

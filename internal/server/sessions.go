package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/history"
)

// The session journal: the durability rung for diagnosis work. Each
// accepted diagnose request carrying an idempotency key is recorded as
// pending (with the full job spec) before any session runs and
// rewritten as done with the verbatim response bytes when it finishes.
// A restarted daemon lists the pending entries — the sessions a crash
// orphaned — and re-runs them; sessions are pure computation per seed,
// so the re-run produces the byte-identical result the dead process
// would have sent. A reconnecting client that resends with the same key
// is served the stored bytes instead of re-running anything.

// SessionsDirName is the store subdirectory holding the session journal
// (a sibling of wal/ and quarantine/; invisible to record scans, which
// skip subdirectories).
const SessionsDirName = "sessions"

// Session journal states.
const (
	sessionPending = "pending"
	sessionDone    = "done"
)

// sessionRecord is one journaled diagnose request, stored as
// <dir>/<escaped key>.json.
type sessionRecord struct {
	Key   string `json:"key"`
	State string `json:"state"` // "pending" | "done"
	// Request is the DiagnoseRequest as accepted.
	Request json.RawMessage `json:"request"`
	// Response is the verbatim response body ([]byte → base64; replaying
	// it must be byte-identical to the original send).
	Response []byte `json:"response,omitempty"`
}

// sessionJournal persists sessionRecords under one directory and
// deduplicates concurrent same-key requests in process.
type sessionJournal struct {
	dir string

	mu sync.Mutex
	// inflight signals per-key completion: concurrent requests with the
	// key of a running session wait for the owner instead of re-running.
	inflight map[string]chan struct{}
}

// openSessionJournal opens (creating) the journal directory.
func openSessionJournal(dir string) (*sessionJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session journal: %w", err)
	}
	return &sessionJournal{dir: dir, inflight: make(map[string]chan struct{})}, nil
}

// escapeKey makes an idempotency key safe as a file basename. The
// output alphabet is caseless — lowercase letters, digits, '_', '.'
// and lowercase-hex escapes — so on case-insensitive filesystems
// (macOS default) two distinct keys can never map to the same journal
// file and be answered with each other's stored response.
func escapeKey(key string) string {
	var out strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '.':
			out.WriteByte(c)
		default:
			fmt.Fprintf(&out, "%%%02x", c)
		}
	}
	return out.String()
}

func (j *sessionJournal) path(key string) string {
	return filepath.Join(j.dir, escapeKey(key)+".json")
}

// read loads one record; a missing file is (nil, nil).
func (j *sessionJournal) read(key string) (*sessionRecord, error) {
	data, err := os.ReadFile(j.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("session journal: %w", err)
	}
	rec := &sessionRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("session journal %s: %w", key, err)
	}
	return rec, nil
}

// write atomically and durably persists one record — a crash mid-write
// must not tear a journal entry, and a power loss must not leave one as
// a zero-length file.
func (j *sessionJournal) write(rec *sessionRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("session journal: %w", err)
	}
	if err := history.WriteFileAtomic(j.path(rec.Key), ".session-*.tmp", data); err != nil {
		return fmt.Errorf("session journal: %w", err)
	}
	return nil
}

// begin claims a key. It returns the stored response bytes when the key
// already finished (the journal-hit path); otherwise the caller becomes
// the key's owner (owner=true) and must call finish or fail, having
// journaled the request as pending. Concurrent calls for an in-flight
// key block until the owner resolves it, then re-check.
func (j *sessionJournal) begin(ctx context.Context, key string, req json.RawMessage) (resp []byte, owner bool, err error) {
	for {
		j.mu.Lock()
		rec, err := j.read(key)
		if err != nil {
			j.mu.Unlock()
			return nil, false, err
		}
		if rec != nil && rec.State == sessionDone {
			j.mu.Unlock()
			return rec.Response, false, nil
		}
		if ch, busy := j.inflight[key]; busy {
			j.mu.Unlock()
			select {
			case <-ch:
				continue // owner resolved it; re-check the record
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// Claim ownership: journal the request as pending before any
		// session work, so a crash from here on leaves a resumable orphan.
		j.inflight[key] = make(chan struct{})
		werr := j.write(&sessionRecord{Key: key, State: sessionPending, Request: req})
		j.mu.Unlock()
		if werr != nil {
			j.release(key)
			return nil, false, werr
		}
		return nil, true, nil
	}
}

// finish resolves an owned key with the response bytes to serve for
// every replay of it.
func (j *sessionJournal) finish(key string, req json.RawMessage, resp []byte) error {
	j.mu.Lock()
	err := j.write(&sessionRecord{Key: key, State: sessionDone, Request: req, Response: resp})
	j.mu.Unlock()
	j.release(key)
	return err
}

// fail abandons an owned key: the pending record is removed (the
// request failed in a way a re-run would repeat; the client sees the
// error and decides). Waiters wake and the next resend re-runs.
func (j *sessionJournal) fail(key string) {
	j.mu.Lock()
	os.Remove(j.path(key))
	j.mu.Unlock()
	j.release(key)
}

// release wakes the key's waiters and clears the in-flight claim.
func (j *sessionJournal) release(key string) {
	j.mu.Lock()
	if ch, ok := j.inflight[key]; ok {
		close(ch)
		delete(j.inflight, key)
	}
	j.mu.Unlock()
}

// orphans lists the pending records — sessions a dead process accepted
// but never finished — sorted by key for deterministic resume order.
func (j *sessionJournal) orphans() ([]*sessionRecord, error) {
	des, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("session journal: %w", err)
	}
	var out []*sessionRecord
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			continue
		}
		rec := &sessionRecord{}
		if json.Unmarshal(data, rec) != nil || rec.Key == "" || escapeKey(rec.Key)+".json" != name {
			// A torn journal entry, or one not named by its own key: no
			// request was acknowledged with these bytes on disk, so drop it.
			os.Remove(filepath.Join(j.dir, name))
			continue
		}
		if rec.State == sessionPending {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key < out[k].Key })
	return out, nil
}

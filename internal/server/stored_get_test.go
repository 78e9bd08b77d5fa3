package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/history"
)

// A GET sends the bytes the record's file holds, plus a newline, when
// they check out against the index's sum, and the index copy's encoding
// otherwise — the same bytes either way, so a GET body is what it was
// when every GET encoded.

// getURL is the GET of key on the pcd at base.
func getURL(base string, k history.RecordKey) string {
	return base + "/api/v1/run?" + url.Values{"app": {k.App}, "ref": {k.Ref()}}.Encode()
}

// getRun GETs key and returns the body of its 200.
func getRun(t testing.TB, base string, k history.RecordKey) []byte {
	t.Helper()
	resp, err := http.Get(getURL(base, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", k, resp.StatusCode, body)
	}
	return body
}

// storedTarget is one store shape a GET is served from: its Storage, the
// shard store holding a key (the store itself when unsharded), and a
// reopen that closes it and opens its directory — or, for memory, its
// backend — afresh, recovery and scan included.
type storedTarget struct {
	st      history.Storage
	shardOf func(k history.RecordKey) *history.Store
	reopen  func(t *testing.T)
	durable bool
}

var storedTargets = map[string]func(t *testing.T) *storedTarget{
	"plain": func(t *testing.T) *storedTarget {
		dir := t.TempDir()
		g := &storedTarget{durable: true}
		g.reopen = func(t *testing.T) {
			if g.st != nil {
				g.st.Close()
			}
			st, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			g.st = st
			g.shardOf = func(history.RecordKey) *history.Store { return st }
		}
		g.reopen(t)
		t.Cleanup(func() { g.st.Close() })
		return g
	},
	"3 shards": func(t *testing.T) *storedTarget {
		dir := t.TempDir()
		g := &storedTarget{durable: true}
		g.reopen = func(t *testing.T) {
			if g.st != nil {
				g.st.Close()
			}
			ss, err := history.OpenSharded(dir, 3, history.DurableOptions{Create: true, WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			g.st = ss
			g.shardOf = func(k history.RecordKey) *history.Store {
				st, _ := ss.Shard(history.ShardForKey(k.App, k.Version, 3))
				return st
			}
		}
		g.reopen(t)
		t.Cleanup(func() { g.st.Close() })
		return g
	},
	"memory": func(t *testing.T) *storedTarget {
		b := history.NewMemBackend()
		g := &storedTarget{}
		g.reopen = func(t *testing.T) {
			st, err := history.NewStoreWith(b)
			if err != nil {
				t.Fatal(err)
			}
			g.st = st
			g.shardOf = func(history.RecordKey) *history.Store { return st }
		}
		g.reopen(t)
		return g
	},
}

// checkStoredGet holds the GET of k on the pcd at base to the record's
// file plus a newline and to MarshalCanonical of the record Load hands
// out, and the pcd to having encoded nothing for any GET.
func checkStoredGet(t *testing.T, what, base string, st history.Storage, shard *history.Store, k history.RecordKey) {
	t.Helper()
	body := getRun(t, base, k)
	file, err := shard.Backend().Get(k)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, k, err)
	}
	rec, err := st.Load(k.App, k.Version, k.RunID)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, k, err)
	}
	want, err := MarshalCanonical(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s: %s: GET body (%d bytes) is not MarshalCanonical of the record (%d bytes)", what, k, len(body), len(want))
	}
	if !bytes.Equal(body, append(file, '\n')) {
		t.Errorf("%s: %s: GET body (%d bytes) is not the record file (%d bytes) plus a newline", what, k, len(body), len(file))
	}
	if row, ok := getStats(t, base).Stages["get_run"]["encode"]; ok {
		t.Errorf("%s: %s: stages[get_run][encode] = %+v, want no row: a stored record was encoded", what, k, row)
	}
}

// TestGetSendsStoredBytes: on a plain store, a 3-shard store and a
// memory store holding real records, a GET body is the record's file
// plus a newline, and MarshalCanonical of the record, with no encode
// timed — after a put, a batch, an overwrite, a delete and a re-put, a
// reopen's scan, a journal replay that rewrites a lost file, and a
// recovery that adopts a record found under another file name.
func TestGetSendsStoredBytes(t *testing.T) {
	corpus := corpusRecords(t)
	for name, open := range storedTargets {
		t.Run(name, func(t *testing.T) {
			g := open(t)
			base := servePut(t, g.st, Options{})
			var keys []history.RecordKey
			check := func(what string, ks ...history.RecordKey) {
				t.Helper()
				for _, k := range ks {
					checkStoredGet(t, what, base, g.st, g.shardOf(k), k)
				}
			}
			put := func(rec *history.RunRecord) history.RecordKey {
				t.Helper()
				body, err := MarshalCanonical(rec)
				if err != nil {
					t.Fatal(err)
				}
				send(t, http.MethodPut, base+"/api/v1/run", body)
				keys = append(keys, rec.Key())
				return rec.Key()
			}
			reopen := func() {
				t.Helper()
				g.reopen(t)
				base = servePut(t, g.st, Options{})
			}

			k := put(corpus[5])
			check("put", k)

			batch := PutRunsRequest{Runs: []*history.RunRecord{corpus[4], corpus[6], corpus[8]}}
			body, err := MarshalCanonical(batch)
			if err != nil {
				t.Fatal(err)
			}
			send(t, http.MethodPost, base+"/api/v1/runs/batch", body)
			for _, rec := range batch.Runs {
				keys = append(keys, rec.Key())
				check("put-batch", rec.Key())
			}

			over := *corpus[0]
			over.App, over.Version, over.RunID = k.App, k.Version, k.RunID
			put(&over)
			check("overwrite", k)

			send(t, http.MethodDelete, getURL(base, k), nil)
			put(corpus[5])
			check("delete then re-put", k)

			reopen()
			check("reopen", keys...)

			if !g.durable {
				return
			}
			// A put the journal holds and the record directory lost: the
			// replay at the next open writes it back.
			lost := *corpus[2]
			lost.RunID = "lost"
			put(&lost)
			if err := g.shardOf(lost.Key()).Backend().Delete(lost.Key()); err != nil {
				t.Fatal(err)
			}
			reopen()
			if rep := g.shardOf(lost.Key()).Recovery(); rep.WAL == nil || rep.WAL.Replayed != 1 {
				t.Fatalf("journal replay: recovery %+v, want one replayed entry", rep.WAL)
			}
			check("journal replay", lost.Key())

			// A record under a file name that is not its key's: the open
			// renames it and indexes it.
			adopted := *corpus[7]
			adopted.RunID = "adopted"
			shard := g.shardOf(adopted.Key())
			if err := os.WriteFile(filepath.Join(shard.Dir(), "misnamed.json"), history.EncodeRecord(&adopted), 0o644); err != nil {
				t.Fatal(err)
			}
			reopen()
			if rep := g.shardOf(adopted.Key()).Recovery(); len(rep.Renamed) != 1 {
				t.Fatalf("adoption: recovery renamed %v, want the misnamed file", rep.Renamed)
			}
			check("recovery adoption", adopted.Key())
			check("after the last reopen", keys...)
		})
	}

	t.Run("follower", func(t *testing.T) {
		p := putTargets["gated primary"](t)
		batch := PutRunsRequest{Runs: []*history.RunRecord{corpus[1], corpus[3]}}
		body, err := MarshalCanonical(batch)
		if err != nil {
			t.Fatal(err)
		}
		send(t, http.MethodPost, p.url+"/api/v1/runs/batch", body)
		if body, err = MarshalCanonical(corpus[5]); err != nil {
			t.Fatal(err)
		}
		send(t, http.MethodPut, p.url+"/api/v1/run", body)
		fol := servePut(t, p.folStore, Options{})
		for _, rec := range []*history.RunRecord{corpus[1], corpus[3], corpus[5]} {
			checkStoredGet(t, "follower's applied copy", fol, p.folStore, p.folStore, rec.Key())
		}
	})
}

// fallbackServer is a pcd whose breaker opens at the first backend
// failure, over a journaled store of the given shard count (each shard
// breaking at its first failure too) whose disk a fault injector sits
// under.
func fallbackServer(t *testing.T, dir string, shards int, faults *history.Faults) (*Server, history.Storage, string) {
	t.Helper()
	st, err := history.OpenStoreAuto(dir, shards, history.DurableOptions{
		Create: true, WAL: true, ShardBreakerThreshold: 1,
		Faults: func(int) *history.Faults { return faults },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(harness.NewEnv(st), Options{Sessions: 1, BreakerThreshold: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, ts.URL
}

// TestGetFallsBackToTheIndexCopy: a GET whose stored bytes cannot be
// vouched for — the file rewritten behind the store's back with another
// valid record, truncated, removed, failing to read, or found compact
// at open — answers 200 with the encoding of the record the index holds,
// times one encode, and is no failure: no refusal, no breaker streak (a
// threshold of one would open it), /healthz still ok.
func TestGetFallsBackToTheIndexCopy(t *testing.T) {
	corpus := corpusRecords(t)
	rec := corpus[1]
	k := rec.Key()
	other := *corpus[0]
	other.App, other.Version, other.RunID = k.App, k.Version, k.RunID
	want, err := MarshalCanonical(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3} {
		faults := history.NewFaults(history.FaultConfig{Seed: 1})
		dir := t.TempDir()
		srv, st, base := fallbackServer(t, dir, shards, faults)
		shard := func(st history.Storage) *history.Store {
			if ss, ok := st.(*history.ShardedStore); ok {
				sh, _ := ss.Shard(history.ShardForKey(k.App, k.Version, shards))
				return sh
			}
			return st.(*history.Store)
		}
		// expect GETs k from the pcd at base and holds it to a fallback,
		// the encode-th of that pcd.
		expect := func(what string, srv *Server, base string, encodes uint64) {
			t.Helper()
			body := getRun(t, base, k)
			if !bytes.Equal(body, want) {
				t.Errorf("shards=%d, %s: GET body (%d bytes) is not the index copy's encoding (%d bytes)", shards, what, len(body), len(want))
			}
			stats := getStats(t, base)
			if n := stats.Stages["get_run"]["encode"].Count; n != encodes {
				t.Errorf("shards=%d, %s: %d get_run encodes, want %d", shards, what, n, encodes)
			}
			for reason, n := range stats.Refusals {
				if n != 0 {
					t.Errorf("shards=%d, %s: refusals[%s] = %d", shards, what, reason, n)
				}
			}
			if srv.brk.Open() || stats.Degraded || stats.BackendFaults != 0 {
				t.Errorf("shards=%d, %s: the fallback fed the breaker: open %v, degraded %v, backend faults %d", shards, what, srv.brk.Open(), stats.Degraded, stats.BackendFaults)
			}
			for _, sh := range stats.Shards {
				if sh.Degraded {
					t.Errorf("shards=%d, %s: shard %d degraded", shards, what, sh.Shard)
				}
			}
			resp, health := doReq(t, srv.Handler(), http.MethodGet, "/healthz", "")
			if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
				t.Errorf("shards=%d, %s: /healthz %d %v, want ok", shards, what, resp.StatusCode, health)
			}
		}

		encodes := uint64(0)
		for _, c := range []struct {
			what  string
			spoil func(b history.Backend) error
			mend  func()
		}{
			{what: "rewritten with another record", spoil: func(b history.Backend) error { return b.Put(k, history.EncodeRecord(&other)) }},
			{what: "truncated", spoil: func(b history.Backend) error { return b.Put(k, history.EncodeRecord(rec)[:1000]) }},
			{what: "removed", spoil: func(b history.Backend) error { return b.Delete(k) }},
			{
				what:  "read fault",
				spoil: func(history.Backend) error { faults.SetConfig(history.FaultConfig{Seed: 1, ErrRate: 1}); return nil },
				mend:  func() { faults.SetConfig(history.FaultConfig{Seed: 1}) },
			},
		} {
			body, err := MarshalCanonical(rec)
			if err != nil {
				t.Fatal(err)
			}
			send(t, http.MethodPut, base+"/api/v1/run", body)
			if err := c.spoil(shard(st).Backend()); err != nil {
				t.Fatal(err)
			}
			encodes++
			expect(c.what, srv, base, encodes)
			if c.mend != nil {
				c.mend()
			}
		}

		// A compact file — the record, but not as the encoder spells it —
		// found at open is indexed without a sum. It is written once an
		// open has folded the journal, which would otherwise write the
		// journaled bytes back over it.
		st.Close()
		_, st, _ = fallbackServer(t, dir, shards, faults)
		var compact bytes.Buffer
		if err := json.Compact(&compact, history.EncodeRecord(rec)); err != nil {
			t.Fatal(err)
		}
		if err := shard(st).Backend().Put(k, compact.Bytes()); err != nil {
			t.Fatal(err)
		}
		st.Close()
		srv, st, base = fallbackServer(t, dir, shards, faults)
		expect("compact file found at open", srv, base, 1)
		if file, err := shard(st).Backend().Get(k); err != nil || !bytes.Equal(file, compact.Bytes()) {
			t.Errorf("shards=%d: the compact file changed under a GET: %v", shards, err)
		}
	}
}

// BenchmarkGetRun takes the GET of poisson B's record — 190 KB encoded,
// about the benchmark corpus's mean — through pcd's handler over a
// journaled store. stored sends the record file's bytes, read and
// checked against the index's sum; fallback finds the same record
// compact at open, so without a sum, and encodes the index copy, as
// every GET did before the index kept sums.
func BenchmarkGetRun(b *testing.B) {
	rec := corpusRecords(b)[1]
	k := rec.Key()
	var compact bytes.Buffer
	if err := json.Compact(&compact, history.EncodeRecord(rec)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"stored", history.EncodeRecord(rec)},
		{"fallback", compact.Bytes()},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			opts := history.DurableOptions{Create: true, WAL: true}
			st, err := history.OpenStoreDurable(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			err = st.Backend().Put(k, c.file)
			st.Close()
			if err != nil {
				b.Fatal(err)
			}
			if st, err = history.OpenStoreDurable(dir, opts); err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			h := New(harness.NewEnv(st), Options{Sessions: 1}).Handler()
			target := getURL("", k)
			b.ReportAllocs()
			b.SetBytes(int64(len(history.EncodeRecord(rec)) + 1))
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
				if w.Code != http.StatusOK {
					b.Fatalf("%d %s", w.Code, w.Body)
				}
			}
		})
	}
}

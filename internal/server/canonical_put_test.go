package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
)

// putTarget is a pcd serving one store shape, and where a record's bytes
// land: its record file, its latest journal frame, and — behind a write
// gate — the follower's record file and store.
type putTarget struct {
	url      string
	stored   func(t *testing.T, k history.RecordKey) (file, frame []byte)
	follower func(t *testing.T, k history.RecordKey) []byte
	acks     func(t *testing.T) uint64
	gate     *replica.GatedStorage
	folStore *history.Store
}

// storedBytes reads key's record file and latest journal frame off st.
func storedBytes(t *testing.T, st *history.Store, k history.RecordKey) (file, frame []byte) {
	t.Helper()
	file, err := st.Backend().Get(k)
	if err != nil {
		t.Fatalf("%s: %v", k, err)
	}
	entries, _, err := history.ReadWAL(st.WAL().Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key() == k {
			frame = e.Data
		}
	}
	return file, frame
}

func servePut(t *testing.T, st history.Storage, opts Options) string {
	t.Helper()
	opts.Sessions = 1
	ts := httptest.NewServer(New(harness.NewEnv(st), opts).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func durableStore(t *testing.T) *history.Store {
	t.Helper()
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

var putTargets = map[string]func(t *testing.T) putTarget{
	"plain": func(t *testing.T) putTarget {
		st := durableStore(t)
		return putTarget{
			url:    servePut(t, st, Options{}),
			stored: func(t *testing.T, k history.RecordKey) ([]byte, []byte) { return storedBytes(t, st, k) },
		}
	},
	"2 shards": func(t *testing.T) putTarget {
		ss, err := history.OpenSharded(t.TempDir(), 2, history.DurableOptions{Create: true, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		return putTarget{
			url: servePut(t, ss, Options{}),
			stored: func(t *testing.T, k history.RecordKey) ([]byte, []byte) {
				st, _ := ss.Shard(history.ShardForKey(k.App, k.Version, 2))
				return storedBytes(t, st, k)
			},
		}
	},
	"gated primary": func(t *testing.T) putTarget {
		pst := durableStore(t)
		prim, err := replica.NewPrimary(pst, 1)
		if err != nil {
			t.Fatal(err)
		}
		prim.SetQuorum(1)
		prim.SetLeaseTTL(2 * time.Second)
		node := &replica.Node{Primary: prim, Advertise: "http://primary.test"}
		gate := replica.Gate(pst, prim)
		url := servePut(t, gate, Options{Replication: node})
		fst := durableStore(t)
		fol, err := replica.NewFollower(url, "http://follower.test", fst)
		if err != nil {
			t.Fatal(err)
		}
		fol.Start()
		t.Cleanup(fol.Stop)
		waitFor(t, "first heartbeat", func() bool {
			s := getStats(t, url)
			return s.Replication != nil && s.Replication.LeaseAgeMS >= 0
		})
		return putTarget{
			url:    url,
			stored: func(t *testing.T, k history.RecordKey) ([]byte, []byte) { return storedBytes(t, pst, k) },
			follower: func(t *testing.T, k history.RecordKey) []byte {
				data, err := fst.Backend().Get(k)
				if err != nil {
					t.Fatalf("follower %s: %v", k, err)
				}
				return data
			},
			acks:     func(t *testing.T) uint64 { return node.Stats().QuorumAcks },
			gate:     gate,
			folStore: fst,
		}
	},
}

// variantRecord is the record the non-canonical bodies spell.
func variantRecord() *history.RunRecord {
	return &history.RunRecord{
		App: "canon", Version: "A", RunID: "v", Duration: 100,
		Resources: map[string][]string{"Code": {"/Code", "/Code/oned.f"}, "Machine": {"/Machine"}},
		ProcNodes: map[string]string{"p1": "sp01", "p2": "sp02"},
		Results: []history.NodeResult{
			{Hyp: "CPUbound", Focus: "</Code,/Machine>", State: "true", Value: 0.5, Threshold: 0.2, ConcludedAt: 5, Priority: "medium"},
			{Hyp: "CPUbound", Focus: "</Code/oned.f,/Machine>", State: "false", Value: 0.1, Threshold: 0.2, ConcludedAt: 5, Priority: "medium", Persistent: true},
		},
		Usage:       map[string]float64{"/Code/oned.f": 0.4},
		PairsTested: 2,
		TrueCount:   1,
	}
}

// nonCanonicalBodies are variantRecord's canonical put body edited, once
// each, into a body pcd reads but the encoder would not write.
func nonCanonicalBodies(t *testing.T) map[string][]byte {
	t.Helper()
	body, err := MarshalCanonical(variantRecord())
	if err != nil {
		t.Fatal(err)
	}
	canonical := string(body)
	out := map[string][]byte{}
	for _, v := range []struct{ name, old, new string }{
		{"reordered members", "\"app\": \"canon\",\n  \"version\": \"A\",", "\"version\": \"A\",\n  \"app\": \"canon\","},
		{"persistent false", "\"priority\": \"medium\"\n    },", "\"priority\": \"medium\",\n      \"persistent\": false\n    },"},
		{"0.50", `"value": 0.5,`, `"value": 0.50,`},
		{"1e-07", `"threshold": 0.2,`, `"threshold": 1e-07,`},
		{"-0 in an int", `"pairs_tested": 2,`, `"pairs_tested": -0,`},
		{`\/`, `"/Code",`, `"\/Code",`},
		{"raw <", `\u003c/Code`, `</Code`},
		{"raw U+2028", `"version": "A"`, "\"version\": \"A\u2028\""},
		{"unsorted keys", "\"p1\": \"sp01\",\n    \"p2\": \"sp02\"", "\"p2\": \"sp02\",\n    \"p1\": \"sp01\""},
		{"duplicate keys", `"p2": "sp02"`, `"p1": "sp02"`},
	} {
		if !strings.Contains(canonical, v.old) {
			t.Fatalf("%s: %q is not in the canonical body", v.name, v.old)
		}
		out[v.name] = []byte(strings.Replace(canonical, v.old, v.new, 1))
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	out["compact"] = compact.Bytes()
	return out
}

func send(t *testing.T, method, url string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", method, resp.StatusCode, msg)
	}
}

// TestPutStoresCanonicalBodyBytes: over a durable plain store, a 2-shard
// store and a gated primary with a follower, a put body in canonical
// form — the client's — is stored as it arrived: the record file, the
// journal frame's data and the follower's file are the body without its
// trailing newline, or a batch element without its depth-2 indent. Any
// other body is stored as EncodeRecord of what it decodes to, as before;
// a batch mixing the two stores every record canonically; and a write
// through the gate's PutEncoded waits for the quorum ack.
func TestPutStoresCanonicalBodyBytes(t *testing.T) {
	corpus := corpusRecords(t)
	for name, open := range putTargets {
		t.Run(name, func(t *testing.T) {
			p := open(t)
			check := func(what string, k history.RecordKey, want []byte) {
				t.Helper()
				file, frame := p.stored(t, k)
				if !bytes.Equal(file, want) || !bytes.Equal(frame, want) {
					t.Errorf("%s: record file equal %v, journal frame equal %v", what, bytes.Equal(file, want), bytes.Equal(frame, want))
				}
				if p.follower != nil && !bytes.Equal(p.follower(t, k), want) {
					t.Errorf("%s: the follower's record file differs", what)
				}
			}

			rec := corpus[5]
			body, err := MarshalCanonical(rec)
			if err != nil {
				t.Fatal(err)
			}
			send(t, http.MethodPut, p.url+"/api/v1/run", body)
			check("canonical put", rec.Key(), body[:len(body)-1])

			batch := PutRunsRequest{Runs: []*history.RunRecord{corpus[4], corpus[6]}}
			if body, err = MarshalCanonical(batch); err != nil {
				t.Fatal(err)
			}
			send(t, http.MethodPost, p.url+"/api/v1/runs/batch", body)
			for _, rec := range batch.Runs {
				want := history.EncodeRecord(rec)
				if !bytes.Contains(body, bytes.ReplaceAll(want, []byte("\n"), []byte("\n    "))) {
					t.Fatalf("%s is not in the batch body at depth 2", rec.Key())
				}
				check("canonical batch", rec.Key(), want)
			}

			for what, body := range nonCanonicalBodies(t) {
				var rec history.RunRecord
				if err := json.Unmarshal(body, &rec); err != nil {
					t.Fatal(err)
				}
				send(t, http.MethodPut, p.url+"/api/v1/run", body)
				check(what, rec.Key(), history.EncodeRecord(&rec))
			}

			canonical, compact := variantRecord(), variantRecord()
			canonical.RunID, compact.RunID = "mixed-canonical", "mixed-compact"
			plain, err := json.Marshal(compact)
			if err != nil {
				t.Fatal(err)
			}
			indented := bytes.ReplaceAll(history.EncodeRecord(canonical), []byte("\n"), []byte("\n    "))
			mixed := "{\n  \"runs\": [\n    " + string(indented) + ",\n    " + string(plain) + "\n  ]\n}\n"
			send(t, http.MethodPost, p.url+"/api/v1/runs/batch", []byte(mixed))
			check("mixed batch, canonical", canonical.Key(), history.EncodeRecord(canonical))
			check("mixed batch, compact", compact.Key(), history.EncodeRecord(compact))

			if p.gate == nil {
				return
			}
			gated := variantRecord()
			gated.RunID = "through-the-gate"
			recs, err := history.DecodePutBatch([]byte("{\"runs\": [" + string(history.EncodeRecord(gated)) + "]}"))
			if err != nil {
				t.Fatal(err)
			}
			before := p.acks(t)
			if n, err := p.gate.PutEncoded(recs); n != 1 || err != nil {
				t.Fatalf("PutEncoded = %d, %v", n, err)
			}
			if p.acks(t) != before+1 {
				t.Errorf("PutEncoded returned without a quorum ack (%d acks before, %d after)", before, p.acks(t))
			}
			check("gated PutEncoded", gated.Key(), history.EncodeRecord(gated))
		})
	}
}

// endless is an unending body of one byte, of no declared length.
type endless byte

func (c endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// TestRequestBodyCapped: a chunked body one byte over the cap is
// refused with 413, not buffered whole.
func TestRequestBodyCapped(t *testing.T) {
	ts := httptest.NewServer(New(harness.NewEnv(nil), Options{Sessions: 1}).Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/run", io.LimitReader(endless(' '), maxTrustedLength+1))
	if err != nil || req.ContentLength != 0 {
		t.Fatalf("a request of unknown length, so chunked: length %d, %v", req.ContentLength, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "too large") {
		t.Errorf("a chunked body of %d bytes: %d %q, want 413", maxTrustedLength+1, resp.StatusCode, e.Error)
	}
}

// BenchmarkPutBody takes a 190 KB record's put body — poisson B's, about
// the benchmark corpus's mean — through pcd's handler to a committed
// write on a memory store: canonical as the client sends it, and compact;
// real puts poisson D's and pipeline's canonical records per op.
func BenchmarkPutBody(b *testing.B) {
	recs := corpusRecords(b)
	body := func(rec *history.RunRecord, marshal func(any) ([]byte, error)) []byte {
		data, err := marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		name   string
		bodies [][]byte
	}{
		{"canonical", [][]byte{body(recs[1], MarshalCanonical)}},
		{"compact", [][]byte{body(recs[1], json.Marshal)}},
		{"real", [][]byte{body(recs[3], MarshalCanonical), body(recs[8], MarshalCanonical)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := New(harness.NewEnv(history.NewMemStore()), Options{Sessions: 1}).Handler()
			b.ReportAllocs()
			size := 0
			for _, data := range c.bodies {
				size += len(data)
			}
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				for _, data := range c.bodies {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/api/v1/run", bytes.NewReader(data)))
					if w.Code != http.StatusOK {
						b.Fatalf("%d %s", w.Code, w.Body)
					}
				}
			}
		})
	}
}

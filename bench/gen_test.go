package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
)

func TestHashIsAPureFunction(t *testing.T) {
	if hash4(1, 0, 0, 0) != hash4(1, 0, 0, 0) {
		t.Fatal("hash4 is not deterministic")
	}
	seen := map[uint64]string{}
	for seed := int64(1); seed <= 3; seed++ {
		for c := -2; c < 3; c++ {
			for idx := 0; idx < 50; idx++ {
				for salt := 0; salt < 3; salt++ {
					h := hash4(seed, c, idx, salt)
					k := fmt.Sprint(seed, c, idx, salt)
					if prev, ok := seen[h]; ok {
						t.Fatalf("hash4 collision: %s and %s", prev, k)
					}
					seen[h] = k
				}
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if u := unit(mix64(uint64(i))); u < 0 || u >= 1 {
			t.Fatalf("unit out of range: %v", u)
		}
	}
}

// recordingTransport logs what a client sends: method, URL and a hash
// of the body. That log is the op sequence as pcd sees it.
type recordingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []string
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	r.mu.Lock()
	r.log = append(r.log, fmt.Sprintf("%s %s %x", req.Method, req.URL.RequestURI(), sha256.Sum256(body)))
	r.mu.Unlock()
	return r.base.RoundTrip(req)
}

// requestLog runs the first n ops of every client of one workload
// against a fresh in-process stack and returns each client's requests.
func requestLog(t *testing.T, wl workload, seed int64, n int) [][]string {
	t.Helper()
	cfg := runConfig{work: t.TempDir(), seed: seed, clients: 2}
	st, err := setUp(cfg, wl, cfg.work, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	w, topo := st.w, st.topo
	defer tearDown(topo)
	if err := wl.Prepare(w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	logs := make([][]string, cfg.clients)
	for i := range logs {
		c := newClient(w, topo.primary.url, i)
		rt := &recordingTransport{base: c.cl.HTTPClient.Transport}
		c.cl.HTTPClient = &http.Client{Transport: rt}
		for idx := 0; idx < n; idx++ {
			c.runOp(ctx, idx)
		}
		c.closeIdle()
		if c.failed > 0 {
			t.Fatalf("%s seed %d client %d: %v", wl.Name(), seed, i, c.firstErr)
		}
		logs[i] = rt.log
	}
	return logs
}

// Same seed: identical requests, byte for byte, from every client.
// Another seed: different ones. Two clients of one seed: different too.
func TestGeneratorIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process daemons")
	}
	ops := map[string]int{"write-durable": 24, "read-mixed": 36, "diagnose": 6, "stream": 4}
	for _, wl := range allWorkloads() {
		n, ok := ops[wl.Name()]
		if !ok {
			continue // write-replicated runs write-durable's ops
		}
		name := wl.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := requestLog(t, workloadByName(name), 1, n)
			b := requestLog(t, workloadByName(name), 1, n)
			c := requestLog(t, workloadByName(name), 2, n)
			if len(a[0]) < n {
				t.Fatalf("%d ops sent only %d requests", n, len(a[0]))
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs of seed 1 sent different requests")
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("seeds 1 and 2 sent identical requests")
			}
			if reflect.DeepEqual(a[0], a[1]) {
				t.Errorf("clients 0 and 1 sent identical requests")
			}
		})
	}
}

// Every block of a mix holds each class exactly as often as the mix
// says, and any nine consecutive records are one of each corpus slot.
func TestMixAndSlotsAreDealtNotDrawn(t *testing.T) {
	for _, m := range []opMix{writeMix, readMix} {
		n := len(m.classes)
		want := map[int]int{}
		for _, cl := range m.classes {
			want[cl]++
		}
		orders := map[string]bool{}
		for block := 0; block < 20; block++ {
			got := map[int]int{}
			order := ""
			for pos := 0; pos < n; pos++ {
				class, nth := m.at(3, 1, block*n+pos)
				if nth != block*want[class]+got[class] {
					t.Fatalf("block %d pos %d: class %d reported as number %d, want %d", block, pos, class, nth, block*want[class]+got[class])
				}
				got[class]++
				order += fmt.Sprint(class)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("block %d holds %v, the mix is %v", block, got, want)
			}
			orders[order] = true
		}
		if len(orders) < 10 {
			t.Errorf("20 blocks came in only %d different orders", len(orders))
		}
		a, _ := m.at(3, 1, 7)
		b, _ := m.at(3, 1, 7)
		if a != b {
			t.Errorf("the same op drew two classes")
		}
	}
	w := &world{seed: 3, corp: &corpus{recs: make([]*history.RunRecord, 9)}}
	for start := 0; start < 40; start += 9 {
		seen := map[int]bool{}
		for n := start; n < start+9; n++ {
			seen[slotOf(w, 0, n, 0)] = true
		}
		if len(seen) != 9 {
			t.Errorf("records %d..%d cover only %d of 9 slots", start, start+8, len(seen))
		}
	}
}

// The record a put carries is a pure function of its coordinates, and
// its stored bytes are what the gate regenerates.
func TestDerivedRecordBytesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine corpus sessions")
	}
	corp, err := buildCorpus(func() {})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range corp.recs {
		data, err := canonicalBytes(rec)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(data); n < 40_000 || n > 600_000 {
			t.Errorf("corpus record %s is %d bytes; the corpus is real 45-483 KB records", corpusApps[i], n)
		}
	}
	w1 := &world{seed: 1, corp: corp}
	w2 := &world{seed: 2, corp: corp}
	slot1 := slotOf(w1, 0, 5, 0)
	r1, key1 := derivedPut(w1, 0, 5, -1, slot1, "")
	r1b, _ := derivedPut(w1, 0, 5, -1, slot1, "")
	r2, _ := derivedPut(w2, 0, 5, -1, slot1, "")
	b1, _ := canonicalBytes(r1)
	b1b, _ := canonicalBytes(r1b)
	b2, _ := canonicalBytes(r2)
	if !bytes.Equal(b1, b1b) {
		t.Errorf("the same put generated twice differs")
	}
	if bytes.Equal(b1, b2) {
		t.Errorf("seeds 1 and 2 generated the same record bytes")
	}
	again, _ := canonicalBytes(corp.derive(slot1, r1.App, r1.Version, r1.RunID, key1))
	if !bytes.Equal(b1, again) {
		t.Errorf("the gate's regeneration differs from what was sent")
	}
	if err := r1.Validate(); err != nil {
		t.Errorf("derived record is invalid: %v", err)
	}
	if !sameRecord(r1, r1b) || sameRecord(r1, r2) {
		t.Errorf("sameRecord disagrees with the bytes")
	}
	// Deriving must leave the corpus record as the session produced it.
	fresh, err := buildCorpus(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecord(corp.recs[slot1], fresh.recs[slot1]) {
		t.Errorf("derive modified the corpus record it copied")
	}
}

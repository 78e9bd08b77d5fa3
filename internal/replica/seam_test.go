package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/history"
)

// The contract of the one exchange between replicas: a header line and
// journal frames in both directions, one decoder, one HTTP call site.

// handedOver is shardedPair after the primary's shard that owns poisson/B
// died and one write to it promoted the follower. It returns both
// stores, the follower's URL and the shard.
func handedOver(t *testing.T) (pst, fst *history.ShardedStore, folURL string, shard int) {
	t.Helper()
	pst, fst, _, folURL, fault := shardedPair(t)
	fault.SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		pst.Save(rec("poisson", "B", "trip", 9)) // trips the breaker
	}
	if err := pst.Save(rec("poisson", "B", "r4", 4)); err != nil {
		t.Fatalf("the write that promotes: %v", err)
	}
	return pst, fst, folURL, history.ShardForKey("poisson", "B", 2)
}

// TestHandOverStoresTheSendersBytes: a record saved through the promoted
// follower's apply is stored there under history.EncodeRecord(rec) — the
// bytes the file of a local Save holds — and a delete of an absent key
// through the seam is still a miss.
func TestHandOverStoresTheSendersBytes(t *testing.T) {
	pst, fst, _, shard := handedOver(t)
	big := rec("poisson", "B", "r5", 0.1+0.2)
	big.Resources = map[string][]string{"Code": {"/Code/a.c/f", "/Code/ü <&>"}}
	batch := []*history.RunRecord{big, rec("poisson", "B", "r6", 6)}
	if n, err := pst.PutBatch(batch); n != 2 || err != nil {
		t.Fatalf("PutBatch through the seam = %d, %v", n, err)
	}
	localDir := t.TempDir()
	local, err := history.NewStore(localDir)
	if err != nil {
		t.Fatal(err)
	}
	folFiles := recordFiles(t, filepath.Join(fst.Dir(), history.ShardsDirName, fmt.Sprintf("%02d", shard)))
	for _, r := range append(batch, rec("poisson", "B", "r4", 4)) {
		if err := local.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range recordFiles(t, localDir) {
		if folFiles[name] != want {
			t.Errorf("%s on the promoted follower differs from a local Save's file:\n%q\n%q", name, folFiles[name], want)
		}
	}
	stored := false
	for _, data := range folFiles {
		stored = stored || data == string(history.EncodeRecord(big))
	}
	if !stored {
		t.Error("no file on the promoted follower holds EncodeRecord(rec)")
	}

	if err := pst.Delete("poisson", "B", "r6"); err != nil {
		t.Fatal(err)
	}
	if err := pst.Delete("poisson", "B", "r6"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("delete of an absent key through the seam = %v, want os.ErrNotExist", err)
	}
}

// TestApplyRefusedWhole: an apply whose second entry's payload identifies
// as another key, or fails Validate, or whose second frame took a bit
// flip, saves nothing — the first entry is not on disk.
func TestApplyRefusedWhole(t *testing.T) {
	_, fst, folURL, shard := handedOver(t)
	sst, _ := fst.Shard(shard)
	first := history.StoredEntry(rec("poisson", "B", "first", 1))
	invalid := rec("poisson", "B", "second", 2)
	invalid.TrueCount = 9
	for what, second := range map[string]history.WALEntry{
		"another key's record": {Op: history.WALOpPut, App: "poisson", Version: "B", RunID: "second", Data: history.EncodeRecord(rec("poisson", "B", "third", 3))},
		"an invalid record":    {Op: history.WALOpPut, App: "poisson", Version: "B", RunID: "second", Data: history.EncodeRecord(invalid)},
	} {
		n, err := (&remoteShard{base: folURL, shard: shard}).Apply([]history.WALEntry{first, second})
		if n != 0 || err == nil {
			t.Errorf("apply with %s second = %d, %v; want it refused", what, n, err)
		}
		if _, err := sst.Load("poisson", "B", "first"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("apply with %s second stored its first entry (load: %v)", what, err)
		}
	}
	frames, err := encodeFrames([]history.WALEntry{first, history.StoredEntry(rec("poisson", "B", "second", 2))})
	if err != nil {
		t.Fatal(err)
	}
	frames[1][len(frames[1])-3] ^= 0x40
	_, err = exchange(context.Background(), http.MethodPost, folURL+"/api/v1/replica/op", OpRequest{Shard: shard, Op: "apply"}, frames)
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("apply with a damaged second frame = %v, want the CRC named", err)
	}
	if _, err := sst.Load("poisson", "B", "first"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("apply with a damaged second frame stored its first entry (load: %v)", err)
	}
}

// TestRemoteReadsMatchLocal: what the seam reads off a follower is what
// the follower's own shard store answers.
func TestRemoteReadsMatchLocal(t *testing.T) {
	_, fst, folURL, _ := handedOver(t)
	for shard := 0; shard < 2; shard++ {
		sst, _ := fst.Shard(shard)
		r := &remoteShard{base: folURL, shard: shard}
		if got, want := r.Keys(), sst.Keys(); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d remote Keys = %v, local %v", shard, got, want)
		}
		if got, want := r.Len(), sst.Len(); got != want {
			t.Errorf("shard %d remote Len = %d, local %d", shard, got, want)
		}
		for _, version := range []string{"", "A", "B"} {
			got, err := r.LoadAll("poisson", version)
			want, _ := sst.LoadAll("poisson", version)
			if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("shard %d remote LoadAll(%q) = %d records, %v; local %d", shard, version, len(got), err, len(want))
			}
		}
		for _, k := range sst.Keys() {
			got, err := r.Load(k.App, k.Version, k.RunID)
			want, _ := sst.Load(k.App, k.Version, k.RunID)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("remote Load(%s) = %+v, %v; local %+v", k, got, err, want)
			}
		}
		if _, err := r.Load("poisson", "A", "never"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %d remote Load of an absent key = %v, want os.ErrNotExist", shard, err)
		}
	}
}

// TestBootstrapRefusesDamagedImage: every byte after a snapshot's header
// line is under a frame's length or CRC, so one flipped byte anywhere in
// the frames, or a body cut short, makes bootstrap return an error with
// the local store as it was — no key deleted, none written, position
// unchanged. (The header line is under JSON syntax only, as on the pull.)
func TestBootstrapRefusesDamagedImage(t *testing.T) {
	pst := openDurable(t, t.TempDir())
	for i := 1; i <= 3; i++ {
		if err := pst.Save(rec("poisson", "A", fmt.Sprintf("r%d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	prim.HandleSnapshot(rr, httptest.NewRequest(http.MethodGet, "/?shard=0", nil))
	image := rr.Body.Bytes()
	nl := bytes.IndexByte(image, '\n')
	if rr.Code != http.StatusOK || nl < 0 || rr.Header().Get("Content-Length") != fmt.Sprint(len(image)) {
		t.Fatalf("snapshot answered %d, %d bytes, Content-Length %q", rr.Code, len(image), rr.Header().Get("Content-Length"))
	}

	var served atomic.Pointer[[]byte]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(*served.Load()) }))
	defer ts.Close()
	folDir := t.TempDir()
	fst := openDurable(t, folDir)
	// Local state the image would prune (only-here) and rewrite (r1).
	for _, r := range []*history.RunRecord{rec("poisson", "A", "only-here", 7), rec("poisson", "A", "r1", 8)} {
		if err := fst.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	fol, err := NewFollower(ts.URL, "http://b", fst)
	if err != nil {
		t.Fatal(err)
	}
	before, position := recordFiles(t, folDir), fol.Stats().Shards[0]
	untouched := func(what string, body []byte) {
		t.Helper()
		served.Store(&body)
		if err := fol.bootstrap(0); err == nil {
			t.Fatalf("%s: bootstrap installed a damaged image", what)
		}
		if got := recordFiles(t, folDir); !reflect.DeepEqual(got, before) || !reflect.DeepEqual(fol.Stats().Shards[0], position) {
			t.Fatalf("%s: store or position changed under a refused image", what)
		}
	}
	flipped := func(i int) []byte {
		body := bytes.Clone(image)
		body[i] ^= 0x10
		return body
	}
	for i := nl + 1; i < len(image); i++ {
		untouched(fmt.Sprintf("byte %d of %d flipped", i, len(image)), flipped(i))
	}
	for _, cut := range []int{0, nl / 2, nl + 1 + 4, len(image) / 2, len(image) - 1} {
		untouched(fmt.Sprintf("cut at %d of %d", cut, len(image)), image[:cut])
	}
	untouched("header line damaged", flipped(0))

	// The undamaged image installs, and the follower then holds, per key,
	// the file bytes the primary holds.
	served.Store(&image)
	if err := fol.bootstrap(0); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, pst.Dir(), folDir)
}

// TestExchangeErrorClasses: the one status mapping — 404 a miss, 409 a
// fencing refusal, any other status and a dead socket storage trouble —
// each carrying what the peer said.
func TestExchangeErrorClasses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var status int
		fmt.Sscan(strings.TrimPrefix(r.URL.Path, "/"), &status)
		httpError(w, status, fmt.Sprintf("peer says %d", status))
	}))
	defer ts.Close()
	miss := func(err error) bool { return errors.Is(err, os.ErrNotExist) }
	fenced := func(err error) bool { return errors.Is(err, ErrFenced) }
	trouble := func(err error) bool { return history.IsTransient(err) && !miss(err) && !fenced(err) }
	for _, tc := range []struct {
		url, says string
		is        func(error) bool
	}{
		{ts.URL + "/404", "peer says 404", miss},
		{ts.URL + "/409", "peer says 409", fenced},
		{ts.URL + "/503", "peer says 503", trouble},
		{ts.URL + "/400", "peer says 400", trouble},
		{"http://127.0.0.1:1/refused", "connect", trouble},
	} {
		body, err := exchange(context.Background(), http.MethodGet, tc.url, nil, nil)
		if body != nil || err == nil || !tc.is(err) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("exchange with %s = %q, %v", tc.url, body, err)
		}
	}
}

// TestRejoinFencesEveryShard: a sharded ex-primary demoted at start-up
// refuses writes to every shard with the typed fencing error naming the
// generation that shard owned — not the first shard only, with 503 (and
// a client retrying forever) on the rest.
func TestRejoinFencesEveryShard(t *testing.T) {
	st, err := history.OpenSharded(t.TempDir(), 2, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fol, err := NewFollower("http://127.0.0.1:1", "http://old-primary", st)
	if err != nil {
		t.Fatal(err)
	}
	var lost []Superseded
	for shard := 0; shard < 2; shard++ {
		lost = append(lost, Superseded{Claim: Claim{Shard: shard, Epoch: 99}, Winner: "http://127.0.0.1:1"})
	}
	if err := fol.Rejoin(lost); err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{"A", "B"} { // one key on each shard
		shard := history.ShardForKey("poisson", version, 2)
		sst, _ := st.Shard(shard)
		err := fol.Writable("poisson", version)
		var fe *FencingError
		if !errors.Is(err, ErrFenced) || !errors.As(err, &fe) || fe.Local != sst.WAL().Epoch() {
			t.Errorf("Writable on shard %d of a rejoined ex-primary = %v, want ErrFenced naming epoch %d", shard, err, sst.WAL().Epoch())
		}
	}
}

// TestAwaitPrimaryRefusesAnotherWire: the follow handshake checks that
// both ends speak the same generation of the replication bodies, naming
// both numbers, instead of leaving the pull loop to fail on every body.
func TestAwaitPrimaryRefusesAnotherWire(t *testing.T) {
	for _, wire := range []int{0, wireGeneration + 1} {
		peer := infoServer(t, InfoResponse{Role: "primary", Shards: 1, Wire: wire, Owned: []Claim{{Epoch: 1}}})
		_, err := AwaitPrimary(context.Background(), peer.URL)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wire %d, this build speaks %d", wire, wireGeneration)) {
			t.Errorf("AwaitPrimary of a wire-%d node = %v, want a refusal naming both", wire, err)
		}
	}
	var n Node
	rr := httptest.NewRecorder()
	n.HandleInfo(rr, httptest.NewRequest(http.MethodGet, "/", nil))
	var info InfoResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil || info.Wire != wireGeneration {
		t.Fatalf("HandleInfo announces wire %d (%v), want %d", info.Wire, err, wireGeneration)
	}
	same := infoServer(t, info)
	if _, err := AwaitPrimary(context.Background(), same.URL); err == nil || !strings.Contains(err.Error(), "not a primary") {
		t.Errorf("AwaitPrimary of a same-wire non-primary = %v", err)
	}
	info.Role, info.Owned = "primary", []Claim{{Epoch: 1}}
	same = infoServer(t, info)
	if _, err := AwaitPrimary(context.Background(), same.URL); err != nil {
		t.Errorf("AwaitPrimary of a same-wire primary = %v", err)
	}
}

// framedBodies are real bodies of each kind: a pull answer, a snapshot
// and an apply request.
func framedBodies(t testing.TB) [][]byte {
	t.Helper()
	pst, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"r1", "r2"} {
		if err := pst.Save(rec("app", "v", run, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pst.Delete("app", "v", "r1"); err != nil {
		t.Fatal(err)
	}
	pull, snap := httptest.NewRecorder(), httptest.NewRecorder()
	prim.HandleWAL(pull, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/?shard=0&epoch=%d&from=0&id=x", prim.Epoch()), nil))
	prim.HandleSnapshot(snap, httptest.NewRequest(http.MethodGet, "/?shard=0", nil))
	frames, err := encodeFrames([]history.WALEntry{history.StoredEntry(rec("app", "v", "r3", 1)), {Op: history.WALOpDelete, App: "app", RunID: "r2"}})
	if err != nil {
		t.Fatal(err)
	}
	var apply bytes.Buffer
	if err := writeFrames(&apply, OpRequest{Shard: 1, Op: "apply", Epoch: 3}, frames); err != nil {
		t.Fatal(err)
	}
	return [][]byte{pull.Body.Bytes(), snap.Body.Bytes(), apply.Bytes()}
}

// FuzzDecodeFramed: the one reader of every body between replicas never
// panics, returns entries only behind a header line that parsed, and what
// it returns is stable — re-framed with history.EncodeWALFrame it reads
// back equal, and when the frames were all of the kind this build writes
// (v2 payloads, no padded varint: the re-framing is as long as what
// followed the first newline) it is those bytes.
func FuzzDecodeFramed(f *testing.F) {
	for _, body := range framedBodies(f) {
		f.Add(body)
		f.Add(body[:len(body)-2])
	}
	f.Add([]byte("{}"))
	f.Add([]byte("[1]\n\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, body []byte) {
		var hdr json.RawMessage
		entries, err := decodeFramed(body, &hdr)
		if err != nil && !errors.Is(err, errBadFrame) {
			if entries != nil {
				t.Fatalf("%d entries behind a header line that did not parse (%v)", len(entries), err)
			}
			return
		}
		frames, ferr := encodeFrames(entries)
		if ferr != nil {
			t.Fatal(ferr)
		}
		_, rest, _ := bytes.Cut(body, []byte{'\n'})
		v2 := err == nil // then rest is whole frames, and their lengths can be walked
		for off := 0; v2 && off < len(rest); off += 8 + int(binary.BigEndian.Uint32(rest[off:])) {
			v2 = rest[off+8] != '{'
		}
		if reframed := bytes.Join(frames, nil); v2 && len(reframed) == len(rest) && !bytes.Equal(reframed, rest) {
			t.Fatalf("re-framing %d entries does not reproduce the %d bytes they were read from", len(entries), len(rest))
		}
		var again bytes.Buffer
		if err := writeFrames(&again, hdr, frames); err != nil {
			t.Fatal(err)
		}
		var hdr2 json.RawMessage
		if back, err := decodeFramed(again.Bytes(), &hdr2); err != nil || !reflect.DeepEqual(back, entries) {
			t.Fatalf("the re-framed body reads back as %d entries, %v; first pass %d", len(back), err, len(entries))
		}
	})
}

// TestFramedBodiesRoundTrip holds the fuzzer's seeds to the strict form of
// its property: each real body decodes clean and re-frames to the byte.
func TestFramedBodiesRoundTrip(t *testing.T) {
	for i, body := range framedBodies(t) {
		var hdr json.RawMessage
		entries, err := decodeFramed(body, &hdr)
		if err != nil || len(entries) == 0 {
			t.Fatalf("body %d: %d entries, %v", i, len(entries), err)
		}
		frames, err := encodeFrames(entries)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := writeFrames(&again, hdr, frames); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Errorf("body %d does not survive decode and re-frame:\n%q\n%q", i, body, again.Bytes())
		}
	}
}

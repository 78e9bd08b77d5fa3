package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/history"
)

func durable() history.DurableOptions { return history.DurableOptions{Create: true, WAL: true} }

// openPair brings up a `pcd -replicas 1` node and the `pcd -follow` node
// that replicates it, both with auto-failover when auto is set.
func openPair(t *testing.T, auto bool) (prim, fol *Node) {
	t.Helper()
	prim, err := Open(Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), Store: durable(),
		Replicas: 1, AutoFailover: auto, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close(context.Background()) })
	fol, err = Open(Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), Store: durable(),
		Follow: prim.URL, AutoFailover: auto, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close(context.Background()) })
	return prim, fol
}

// calls records the drain as it happens.
type calls []string

type recShutdown struct {
	name  string
	inner interface{ Shutdown(context.Context) error }
	log   *calls
}

func (r recShutdown) Shutdown(ctx context.Context) error {
	*r.log = append(*r.log, r.name)
	return r.inner.Shutdown(ctx)
}

type recStop struct {
	name  string
	inner interface{ Stop() }
	log   *calls
}

func (r recStop) Stop() {
	*r.log = append(*r.log, r.name)
	r.inner.Stop()
}

type recStore struct {
	history.Storage
	log *calls
}

func (r recStore) SyncWAL() error {
	*r.log = append(*r.log, "wal sync")
	return r.Storage.SyncWAL()
}

func (r recStore) Close() error {
	*r.log = append(*r.log, "store close")
	return r.Storage.Close()
}

// TestCloseOrder: the drain stops the service, then the listener, then
// the detector, then the follower, and only then flushes and closes the
// journal — nothing mutates the store after the barrier — and a second
// Close does nothing.
func TestCloseOrder(t *testing.T) {
	// An auto-failover follower carries every party: pull loops and a
	// standby's detector.
	_, n := openPair(t, true)
	if n.det == nil || n.fol == nil {
		t.Fatalf("auto-failover follower has det=%v fol=%v, want both", n.det, n.fol)
	}
	var got calls
	n.srv = recShutdown{"service shutdown", n.srv, &got}
	n.httpSrv = recShutdown{"listener shutdown", n.httpSrv, &got}
	n.det = recStop{"detector stop", n.det, &got}
	n.fol = recStop{"follower stop", n.fol, &got}
	n.store = recStore{n.store, &got}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Fatal(err)
	}
	want := calls{"service shutdown", "listener shutdown", "detector stop", "follower stop", "wal sync", "store close"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order = %v, want %v", got, want)
	}
	if err := n.Close(ctx); err != nil || len(got) != len(want) {
		t.Fatalf("second Close: err %v, calls %v; want a no-op", err, got)
	}
}

// afterShutdown runs then once the listener's Shutdown has returned.
type afterShutdown struct {
	inner interface{ Shutdown(context.Context) error }
	then  func()
}

func (a afterShutdown) Shutdown(ctx context.Context) error {
	err := a.inner.Shutdown(ctx)
	a.then()
	return err
}

// tree lists every file and directory under dir with its size and
// modification time.
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprintf("%v %d %d", info.Mode(), info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDirectoryStillAfterClose: once Close returns, nothing writes into
// the node's directory. net/http's Shutdown closes a connection it finds
// idle even while the next request is being read from it, and hands that
// request to the handler after Shutdown has returned. Here the request
// that arrives that way — once Close has returned — is a new follower's
// first pull, which persists the primary's peer registry.
func TestDirectoryStillAfterClose(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{Addr: "127.0.0.1:0", Dir: dir, Store: durable(), Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := n.httpSrv.(*http.Server).Handler
	release, served := make(chan struct{}), make(chan int)
	n.httpSrv = afterShutdown{n.httpSrv, func() {
		go func() {
			<-release
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/replica/wal?shard=0&epoch=0&from=0&id=http://late.invalid&wait=0", nil))
			served <- rec.Code
		}()
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Fatal(err)
	}
	before := tree(t, dir)
	close(release)
	code := <-served
	after := tree(t, dir)
	for path, b := range before {
		if a, ok := after[path]; !ok || a != b {
			t.Errorf("%s changed after Close: %q, now %q", path, b, a)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			t.Errorf("%s appeared after Close", path)
		}
	}
	if t.Failed() || code != http.StatusServiceUnavailable {
		t.Errorf("a request reaching the handler after Close got status %d, want 503", code)
	}
}

// TestCloseRunsEveryStep: a step that fails does not stop the drain, and
// Close returns the failure, every time.
func TestCloseRunsEveryStep(t *testing.T) {
	n, err := Open(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Store: durable()})
	if err != nil {
		t.Fatal(err)
	}
	var got calls
	n.srv = failShutdown{n.srv}
	n.store = recStore{n.store, &got}
	err = n.Close(context.Background())
	if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
		t.Fatalf("Close = %v, want the failed drain step", err)
	}
	if want := (calls{"wal sync", "store close"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failed first step the store saw %v, want %v", got, want)
	}
	if again := n.Close(context.Background()); again == nil || again.Error() != err.Error() {
		t.Fatalf("second Close = %v, want %v", again, err)
	}
}

type failShutdown struct {
	inner interface{ Shutdown(context.Context) error }
}

func (f failShutdown) Shutdown(ctx context.Context) error {
	return errors.Join(errors.New("sessions still running"), f.inner.Shutdown(ctx))
}

// TestFollowerNodeServesPublicAPI: a follower opened through Open is a
// whole pcd — the replication handshake, public reads, public writes
// refused until promotion and accepted after — not a replication-only
// stub.
func TestFollowerNodeServesPublicAPI(t *testing.T) {
	prim, fol := openPair(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec := &history.RunRecord{
		App: "poisson", Version: "A", RunID: "r1", TrueCount: 1,
		Results: []history.NodeResult{{Hyp: "ExcessiveSyncWaitingTime", Focus: "proc:p1", State: "true", Value: 0.4}},
	}
	if _, err := client.New(prim.URL).PutRun(ctx, rec); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fol.URL + "/api/v1/replica/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Role string `json:"role"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || info.Role != "follower" {
		t.Fatalf("GET /replica/info on the follower: status %d, role %q, err %v", resp.StatusCode, info.Role, err)
	}

	fc := client.New(fol.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, err := fc.GetRun(ctx, "poisson", "A:r1"); err == nil && got.RunID == "r1" {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("follower never served the replicated run: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	rec2 := *rec
	rec2.RunID = "r2"
	if _, err := fc.PutRun(ctx, &rec2); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("public PUT on an unpromoted follower: %v, want 503", err)
	}
	resp, err = http.Post(fol.URL+"/api/v1/replica/promote", "application/json", bytes.NewReader([]byte(`{"shard":-1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if _, err := fc.PutRun(ctx, &rec2); err != nil {
		t.Fatalf("public PUT after promotion: %v", err)
	}
}

// TestDebugAddrServesPprofOnItsOwnListener: -debug-addr brings up the
// profiler on a second listener, the data listener never routes to it,
// and Close takes it down with the node.
func TestDebugAddrServesPprofOnItsOwnListener(t *testing.T) {
	n, err := Open(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Store: durable(), DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(context.Background())
	if n.DebugURL == "" || n.DebugURL == n.URL {
		t.Fatalf("DebugURL = %q beside URL %q, want a listener of its own", n.DebugURL, n.URL)
	}
	get := func(base string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get(n.DebugURL); code != http.StatusOK || !strings.Contains(body, os.Args[0]) {
		t.Errorf("GET /debug/pprof/cmdline on the debug listener: %d %q, want 200 and this binary's command line", code, body)
	}
	if code, _ := get(n.URL); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/cmdline on the data listener: %d, want 404", code)
	}
	if err := n.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(n.DebugURL + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		t.Error("the debug listener still answers after Close")
	}

	off, err := Open(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Store: durable()})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close(context.Background())
	if off.DebugURL != "" || off.debug != nil {
		t.Errorf("a node without -debug-addr has DebugURL %q", off.DebugURL)
	}
}

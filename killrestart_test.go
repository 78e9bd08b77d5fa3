package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/server"
)

// The kill-9 recovery harness: a real pcd process is SIGKILLed mid-write
// and mid-session, restarted, and must come back with zero acked-write
// loss, a store pcfsck can bless, and resumed sessions whose results are
// byte-identical to uninterrupted runs. This is the tentpole's
// end-to-end proof — everything else in the PR tests the layers in
// isolation.

// buildTools compiles the named commands into a temp dir.
func buildTools(t *testing.T, tools ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, tool := range tools {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return bin
}

// daemon is one running pcd process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches pcd and waits for its "pcd: serving on" line —
// that line specifically, not the first one holding a URL: recovery and
// fault warnings may precede it, and an auto-failover node logs the
// winner's URL while it demotes itself, before it serves. Stdout keeps
// being drained afterwards so the child never blocks on a full pipe.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "pcd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	handshake := make(chan string, 1)
	go func() {
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.Contains(line, "pcd: serving on ") {
				handshake <- line
				sent = true
			}
		}
		if !sent {
			close(handshake)
		}
	}()
	var serving string
	select {
	case serving = <-handshake:
	case <-time.After(30 * time.Second):
		t.Fatalf("pcd %s did not print its serving line", strings.Join(args, " "))
	}
	i := strings.Index(serving, "http://")
	j := strings.Index(serving, " (store")
	if i < 0 || j < i {
		t.Fatalf("pcd handshake line unexpected: %q", serving)
	}
	return &daemon{cmd: cmd, url: serving[i:j]}
}

// kill SIGKILLs the daemon — no drain, no journal close, the crash the
// durability layer exists for.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// stop SIGTERMs the daemon and waits for a clean drain.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcd exited with %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pcd did not stop within 30s of SIGTERM")
	}
}

// fsck runs pcfsck -store dir and returns its exit code and output.
func fsck(t *testing.T, bin, dir string, repair bool) (int, string) {
	t.Helper()
	args := []string{"-store", dir}
	if repair {
		args = append(args, "-repair")
	}
	out, err := exec.Command(filepath.Join(bin, "pcfsck"), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("pcfsck: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestKillRestartMidWrite hammers a WAL-backed daemon with writes under
// injected faults — torn and failed writes of the journal and the record
// files alike, through the commit that ships — SIGKILLs it mid-stream,
// and requires every acknowledged write to survive the restart
// byte-identically. Three kill cycles; each restart is verified with
// pcfsck.
func TestKillRestartMidWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills processes")
	}
	bin := buildTools(t, "pcd", "pcfsck")
	store := filepath.Join(t.TempDir(), "store")

	// One real session provides a valid record to clone per write.
	a, err := app.Build("poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultSessionConfig()
	cfg.MaxTime = 5000
	res, err := harness.RunSession(a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	acked := map[string][]byte{} // run id -> canonical record bytes as acked
	next := 0
	// A journal group whose sync the injector failed was written and
	// compensated but never synced: the journal then counts more appends
	// than syncs, which is how a cycle shows a faulted journal append.
	journalFaulted := 0
	faultArgs := []string{
		"-store", store, "-addr", "127.0.0.1:0", "-create",
		"-wal", "-wal-sync", "always",
		"-fault-torn-rate", "0.2", "-fault-err-rate", "0.05",
		// A degraded daemon probes its store again within milliseconds, so
		// a cycle keeps writing through the faults instead of waiting out
		// the default 5s cooldown.
		"-breaker-cooldown", "5ms",
	}
	for cycle := 0; cycle < 3; cycle++ {
		d := startDaemon(t, bin, faultArgs...)
		cl := client.New(d.url)
		if err := cl.WaitHealthy(ctx); err != nil {
			t.Fatal(err)
		}
		// Stream writes; SIGKILL arrives asynchronously mid-stream.
		killAt := time.After(time.Duration(150+cycle*100) * time.Millisecond)
		killed := false
		for !killed {
			select {
			case <-killAt:
				if stats, err := cl.Stats(ctx); err == nil && stats.WALAppends > stats.WALSyncs {
					journalFaulted++
				}
				d.kill(t)
				killed = true
			default:
				rec := *res.Record
				rec.RunID = fmt.Sprintf("w%04d", next)
				next++
				if _, err := cl.PutRun(ctx, &rec); err == nil {
					data, merr := server.MarshalCanonical(&rec)
					if merr != nil {
						t.Fatal(merr)
					}
					acked[rec.RunID] = data
				} else {
					cl.Health(ctx) // the probe that ends degraded mode
				}
				// Injected faults and the kill race are expected; only an
				// acknowledged write creates an obligation.
			}
		}

		// Restart without fault injection and verify nothing acked is
		// gone or changed.
		d2 := startDaemon(t, bin, "-store", store, "-addr", "127.0.0.1:0", "-wal", "-wal-sync", "always")
		cl2 := client.New(d2.url)
		if err := cl2.WaitHealthy(ctx); err != nil {
			t.Fatal(err)
		}
		for runID, want := range acked {
			rec, err := cl2.GetRun(ctx, "poisson", "A:"+runID)
			if err != nil {
				t.Fatalf("cycle %d: acked write %s lost after SIGKILL: %v", cycle, runID, err)
			}
			got, err := server.MarshalCanonical(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cycle %d: record %s differs from its acked bytes after recovery", cycle, runID)
			}
		}
		d2.stop(t)

		// After a clean stop the store must verify clean; a non-zero grade
		// here means recovery left something behind.
		if code, out := fsck(t, bin, store, false); code != 0 {
			// Crash residue (grade 1) is legal right after a SIGKILL but not
			// after a verified restart + drain; repair and re-grade to give
			// the failure message the details.
			t.Fatalf("cycle %d: pcfsck grades the recovered store %d:\n%s", cycle, code, out)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged; the soak proved nothing")
	}
	if journalFaulted == 0 {
		t.Fatal("no cycle faulted a journal append; the soak never reached the journal")
	}
	t.Logf("%d writes acknowledged; %d of 3 cycles faulted a journal append", len(acked), journalFaulted)
}

// TestKillRestartMidSession SIGKILLs a daemon while a journaled
// diagnosis session is running, restarts it (pcd resumes orphaned
// sessions at every start), and requires the resumed result a
// reconnecting client fetches to be byte-identical to the same request
// served by a daemon that never crashed.
func TestKillRestartMidSession(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and kills processes")
	}
	bin := buildTools(t, "pcd", "pcfsck")
	req := &server.DiagnoseRequest{
		App: "poisson", Version: "A", MaxTime: 20000, Save: true,
		IdempotencyKey: "kill9_session",
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) (int, []byte, error) {
		resp, err := http.Post(url+"/api/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}

	// Reference: the request against a daemon that never crashes.
	refStore := filepath.Join(t.TempDir(), "ref-store")
	ref := startDaemon(t, bin, "-store", refStore, "-addr", "127.0.0.1:0", "-create")
	code, want, err := post(ref.url)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reference diagnose: %v (status %d): %s", err, code, want)
	}
	ref.stop(t)

	// The victim: send the same request, wait until the daemon has
	// journaled it as pending (the accept point), then SIGKILL mid-run.
	store := filepath.Join(t.TempDir(), "store")
	d := startDaemon(t, bin, "-store", store, "-addr", "127.0.0.1:0", "-create")
	errc := make(chan error, 1)
	go func() {
		_, _, err := post(d.url)
		errc <- err // a connection error: the daemon died under us
	}()
	journalFile := filepath.Join(store, "sessions", req.IdempotencyKey+".json")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := os.Stat(journalFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("diagnose request was never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill(t)
	<-errc

	// The orphaned session must be visible to pcfsck as pending state,
	// not corruption.
	if code, out := fsck(t, bin, store, false); code == 2 {
		t.Fatalf("pcfsck grades the killed store corrupt:\n%s", out)
	}

	// Restart; the daemon resumes the orphan in the background. Wait for
	// the journal record to flip pending -> done (the resume finishing)
	// before resending, so the resend is a pure journal hit rather than
	// racing the resume for the claim.
	d2 := startDaemon(t, bin, "-store", store, "-addr", "127.0.0.1:0")
	deadline = time.Now().Add(60 * time.Second)
	for {
		data, err := os.ReadFile(journalFile)
		var entry struct {
			State string `json:"state"`
		}
		if err == nil && json.Unmarshal(data, &entry) == nil && entry.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never finished resuming the orphaned session")
		}
		time.Sleep(20 * time.Millisecond)
	}
	rcode, got, err := post(d2.url)
	if err != nil || rcode != http.StatusOK {
		t.Fatalf("resend after restart: %v (status %d): %s", err, rcode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed session differs from the uninterrupted run:\n got: %s\nwant: %s", got, want)
	}

	// And the journal now serves it as a hit without re-running.
	statsResp, err := http.Get(d2.url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	err = json.NewDecoder(statsResp.Body).Decode(&stats)
	statsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SessionsResumed != 1 {
		t.Fatalf("sessions_resumed = %d, want 1", stats.SessionsResumed)
	}
	d2.stop(t)
	if code, out := fsck(t, bin, store, false); code != 0 {
		t.Fatalf("pcfsck grades the recovered store %d:\n%s", code, out)
	}
}

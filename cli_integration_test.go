package repro

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/loadgen"
)

// TestCLIPipeline builds every command-line tool and drives the complete
// workflow the paper describes: diagnose and store a run, harvest
// directives, re-diagnose under direction, gather a raw trace and harvest
// from it, query the store, and compare two executions.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	tools := []string{"pcrun", "pcextract", "pctrace", "pcquery", "pccompare", "pcbench", "pcd"}
	for _, tool := range tools {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	work := t.TempDir()
	store := filepath.Join(work, "store")
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	// 1. Base diagnoses of two versions, stored.
	out := run("pcrun", "-app", "poisson", "-version", "A", "-store", store, "-run-id", "base")
	if !strings.Contains(out, "search quiesced:    true") {
		t.Fatalf("base run did not quiesce:\n%s", out)
	}
	run("pcrun", "-app", "poisson", "-version", "B", "-store", store, "-run-id", "base", "-node-offset", "5")

	// 2. Harvest directives from A mapped toward B, then diagnose B with
	//    them.
	dirFile := filepath.Join(work, "a-to-b.txt")
	out = run("pcextract", "-store", store, "-app", "poisson", "-version", "A", "-run-id", "base",
		"-map-to", "B:base", "-o", dirFile)
	if !strings.Contains(out, "wrote") || !strings.Contains(out, "inferred") {
		t.Fatalf("pcextract output unexpected:\n%s", out)
	}
	data, err := os.ReadFile(dirFile)
	if err != nil || !strings.Contains(string(data), "priority high") {
		t.Fatalf("directive file malformed: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "nbsweep.f") {
		t.Fatalf("mapping did not rewrite module names:\n%.400s", data)
	}
	out = run("pcrun", "-app", "poisson", "-version", "B", "-node-offset", "5", "-directives", dirFile)
	if !strings.Contains(out, "bottlenecks found:") {
		t.Fatalf("directed run output unexpected:\n%s", out)
	}

	// 3. Raw trace -> postmortem harvest -> directed run.
	traceFile := filepath.Join(work, "trace.jsonl")
	run("pctrace", "-app", "poisson", "-version", "C", "-duration", "60", "-o", traceFile)
	pmFile := filepath.Join(work, "pm.txt")
	run("pcextract", "-trace", traceFile, "-app", "poisson", "-version", "C", "-o", pmFile)
	out = run("pcrun", "-app", "poisson", "-version", "C", "-directives", pmFile)
	if !strings.Contains(out, "search quiesced:    true") {
		t.Fatalf("postmortem-directed run did not quiesce:\n%s", out)
	}

	// 4. Query the store.
	out = run("pcquery", "-store", store, "-app", "poisson", "-list")
	if !strings.Contains(out, "poisson-A-base") || !strings.Contains(out, "poisson-B-base") {
		t.Fatalf("pcquery -list:\n%s", out)
	}
	out = run("pcquery", "-store", store, "-app", "poisson", "-state", "true", "-min", "0.3")
	if !strings.Contains(out, "matching results") {
		t.Fatalf("pcquery results:\n%s", out)
	}
	out = run("pcquery", "-store", store, "-app", "poisson", "-persistent", "1")
	if !strings.Contains(out, "runs") {
		t.Fatalf("pcquery persistent:\n%s", out)
	}

	// 5. Compare the two stored executions.
	out = run("pccompare", "-store", store, "-app", "poisson", "-a", "A:base", "-b", "B:base")
	if !strings.Contains(out, "run comparison") || !strings.Contains(out, "bottlenecks in both runs") {
		t.Fatalf("pccompare:\n%s", out)
	}

	// 6. One figure through pcbench.
	out = run("pcbench", "-exp", "fig3")
	if !strings.Contains(out, "map /Code/oned.f /Code/onednb.f") {
		t.Fatalf("pcbench fig3:\n%s", out)
	}

	// 6b. A full table through the parallel scheduler: four workers must
	// produce exactly the sequential output.
	parallelOut := run("pcbench", "-exp", "table1", "-trials", "1", "-parallel", "4")
	if !strings.Contains(parallelOut, "Table 1") || !strings.Contains(parallelOut, "Priorities & All Prunes") {
		t.Fatalf("pcbench table1 -parallel 4:\n%s", parallelOut)
	}
	sequentialOut := run("pcbench", "-exp", "table1", "-trials", "1", "-parallel", "1")
	if parallelOut != sequentialOut {
		t.Fatalf("pcbench table1 output differs between -parallel 4 and -parallel 1:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			parallelOut, sequentialOut)
	}

	// 6c. Persisting experiment records: -store must not change the
	// rendered table, and the records must be browsable afterwards.
	benchStore := filepath.Join(work, "bench-store")
	storedOut := run("pcbench", "-exp", "table1", "-trials", "1", "-parallel", "4", "-store", benchStore)
	if storedOut != sequentialOut {
		t.Fatalf("pcbench table1 output differs with -store:\n--- stored ---\n%s\n--- sequential ---\n%s",
			storedOut, sequentialOut)
	}
	out = run("pcquery", "-store", benchStore, "-app", "poisson", "-list")
	if !strings.Contains(out, "poisson-C-t1-base") {
		t.Fatalf("pcbench -store records not browsable:\n%s", out)
	}

	// 6d. The whole evaluation, held to committed bytes: every table and
	// figure the paper reproduction prints, three trials each.
	want, err := os.ReadFile(filepath.Join("testdata", "pcbench_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out = run("pcbench", "-exp", "all", "-trials", "3"); out != string(want) {
		t.Fatalf("pcbench -exp all -trials 3 differs from testdata/pcbench_all.golden; this build prints:\n%s", out)
	}

	// 6e. A mistyped experiment is a usage error that names the valid
	// ones, not an empty success.
	typo, err := exec.Command(filepath.Join(bin, "pcbench"), "-exp", "tabel1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(typo), "table1") {
		t.Fatalf("pcbench -exp tabel1: %v, want exit status 2 naming table1\n%s", err, typo)
	}

	// 7. Most specific bottlenecks of a stored run.
	out = run("pcquery", "-store", store, "-app", "poisson", "-version", "A", "-run-id", "base", "-specific")
	if !strings.Contains(out, "most specific bottlenecks") || !strings.Contains(out, "value=") {
		t.Fatalf("pcquery -specific:\n%s", out)
	}

	// 8. A mistyped store path must be an error, not an empty result:
	// the read-only tools and the daemon exit non-zero.
	runFail := func(tool string, args ...string) {
		t.Helper()
		if out, err := exec.Command(filepath.Join(bin, tool), args...).CombinedOutput(); err == nil {
			t.Fatalf("%s %s succeeded on a missing store:\n%s", tool, strings.Join(args, " "), out)
		}
	}
	missing := filepath.Join(work, "no-such-store")
	runFail("pcquery", "-store", missing, "-app", "poisson", "-list")
	runFail("pcextract", "-store", missing, "-app", "poisson", "-version", "A", "-run-id", "base")
	runFail("pccompare", "-store", missing, "-app", "poisson", "-a", "A:base", "-b", "B:base")
	runFail("pcd", "-store", missing, "-addr", "127.0.0.1:0")

	// 9. The daemon pipeline: serve the store over HTTP and require the
	// -server output of pcquery/pccompare to be byte-identical to the
	// -store output, then drain on SIGTERM.
	daemon := exec.Command(filepath.Join(bin, "pcd"), "-store", store, "-addr", "127.0.0.1:0")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = daemon.Stdout
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	// The first stdout line is the startup handshake carrying the bound
	// address.
	sc := bufio.NewScanner(stdout)
	handshake := make(chan string, 1)
	go func() {
		if sc.Scan() {
			handshake <- sc.Text()
		}
		close(handshake)
	}()
	var serving string
	select {
	case serving = <-handshake:
	case <-time.After(10 * time.Second):
		t.Fatal("pcd did not print its serving line")
	}
	i := strings.Index(serving, "http://")
	j := strings.Index(serving, " (store")
	if i < 0 || j < i {
		t.Fatalf("pcd handshake line unexpected: %q", serving)
	}
	url := serving[i:j]

	for _, args := range [][]string{
		{"-app", "poisson", "-state", "true", "-min", "0.3", "-json"},
		{"-app", "poisson", "-persistent", "1", "-json"},
		{"-app", "poisson", "-specific", "-ref", "A:base", "-json"},
		{"-list", "-json"},
	} {
		local := run("pcquery", append([]string{"-store", store}, args...)...)
		remote := run("pcquery", append([]string{"-server", url}, args...)...)
		if local != remote {
			t.Fatalf("pcquery %s differs between -store and -server:\n--- store ---\n%s\n--- server ---\n%s",
				strings.Join(args, " "), local, remote)
		}
	}
	cmpArgs := []string{"-app", "poisson", "-a", "A:base", "-b", "B:base", "-json"}
	localCmp := run("pccompare", append([]string{"-store", store}, cmpArgs...)...)
	remoteCmp := run("pccompare", append([]string{"-server", url}, cmpArgs...)...)
	if localCmp != remoteCmp {
		t.Fatalf("pccompare -json differs between -store and -server:\n--- store ---\n%s\n--- server ---\n%s",
			localCmp, remoteCmp)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcd exited with %v after SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pcd did not stop within 10s of SIGTERM")
	}

	// 10. Diagnosis artifacts: SHG dot, timeline CSV, HTML report.
	dot := filepath.Join(work, "shg.dot")
	csv := filepath.Join(work, "timeline.csv")
	htmlFile := filepath.Join(work, "report.html")
	run("pcrun", "-app", "seismic", "-dot", dot, "-timeline", csv, "-report", htmlFile)
	for _, f := range []struct{ path, want string }{
		{dot, "digraph SHG"},
		{csv, "time,cpu,sync_wait,io_wait"},
		{htmlFile, "Where to tune first"},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil || !strings.Contains(string(data), f.want) {
			t.Fatalf("artifact %s missing %q: %v", f.path, f.want, err)
		}
	}
}

// TestCLIFsckExitCodes pins pcfsck's scripting contract: exit 0 on a
// clean store, 1 on recoverable crash residue, 2 on corruption — with
// -json output that parses into history.FsckReport and carries the
// matching findings.
func TestCLIFsckExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := filepath.Join(t.TempDir(), "pcfsck")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pcfsck").CombinedOutput(); err != nil {
		t.Fatalf("build pcfsck: %v\n%s", err, out)
	}
	fsck := func(dir string) (int, *history.FsckReport) {
		t.Helper()
		cmd := exec.Command(bin, "-json", "-store", dir)
		out, err := cmd.Output()
		code := 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("pcfsck -store %s: %v", dir, err)
			}
			code = ee.ExitCode()
		}
		var rep history.FsckReport
		if jerr := json.Unmarshal(out, &rep); jerr != nil {
			t.Fatalf("pcfsck -json output does not parse: %v\n%s", jerr, out)
		}
		return code, &rep
	}

	// A cleanly closed store grades 0 with no findings.
	dir := t.TempDir()
	st, err := history.OpenStoreDurable(dir, history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Save(loadgen.SyntheticRecord(1, i, fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	code, rep := fsck(dir)
	if code != 0 || len(rep.Findings) != 0 {
		t.Fatalf("clean store: exit %d, findings %+v", code, rep.Findings)
	}
	if rep.Records != 3 {
		t.Errorf("clean store report: %d records, want 3", rep.Records)
	}

	// An orphaned atomic-write temp file is residue: exit 1.
	orphan := filepath.Join(dir, ".put-orphan.tmp")
	if err := os.WriteFile(orphan, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep = fsck(dir)
	if code != 1 {
		t.Fatalf("residue store: exit %d, want 1", code)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Severity == history.FsckResidue && strings.Contains(f.Path, ".put-orphan.tmp") {
			found = true
		}
		if f.Severity == history.FsckCorrupt {
			t.Errorf("residue store graded corrupt: %+v", f)
		}
	}
	if !found {
		t.Fatalf("orphan temp file not reported: %+v", rep.Findings)
	}
	if err := os.Remove(orphan); err != nil {
		t.Fatal(err)
	}

	// Overwriting a journaled record with garbage is only residue — the
	// WAL holds the acknowledged bytes and replay restores them.
	// (Record r1 has index 1, so it carries version v2.)
	recFile := filepath.Join(dir, "loadapp-v2-r1.json")
	good, err := os.ReadFile(recFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recFile, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep = fsck(dir)
	if code != 1 {
		t.Fatalf("journal-covered damage: exit %d, want 1 (WAL can replay it)", code)
	}
	if err := os.WriteFile(recFile, good, 0o644); err != nil {
		t.Fatal(err)
	}

	// A garbage record the journal never saw cannot be reconstructed:
	// exit 2, and it outranks any residue also present.
	bogus := filepath.Join(dir, "loadapp-v1-zz.json")
	if err := os.WriteFile(bogus, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep = fsck(dir)
	if code != 2 {
		t.Fatalf("corrupt store: exit %d, want 2", code)
	}
	corrupt := false
	for _, f := range rep.Findings {
		if f.Severity == history.FsckCorrupt && strings.Contains(f.Path, "loadapp-v1-zz.json") {
			corrupt = true
		}
	}
	if !corrupt {
		t.Fatalf("corrupt record not reported: %+v", rep.Findings)
	}
}

// TestCLIFsckShardedExitCodes pins the same 0/1/2 scripting contract on
// a sharded store: exit 0 when every shard is clean, 1 for a record
// sitting on the wrong shard (with -repair moving it home), 2 when one
// shard holds corruption — and -json reports carrying per-shard
// sections plus the misplaced count throughout.
func TestCLIFsckShardedExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := filepath.Join(t.TempDir(), "pcfsck")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pcfsck").CombinedOutput(); err != nil {
		t.Fatalf("build pcfsck: %v\n%s", err, out)
	}
	fsck := func(args ...string) (int, *history.FsckReport) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-json"}, args...)...)
		out, err := cmd.Output()
		code := 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("pcfsck %s: %v", strings.Join(args, " "), err)
			}
			code = ee.ExitCode()
		}
		var rep history.FsckReport
		if jerr := json.Unmarshal(out, &rep); jerr != nil {
			t.Fatalf("pcfsck -json output does not parse: %v\n%s", jerr, out)
		}
		return code, &rep
	}

	// Build a 4-shard store whose records cover at least two shards.
	dir := t.TempDir()
	st, err := history.OpenSharded(dir, 4, history.DurableOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	shardsUsed := map[int]bool{}
	for i := 0; i < 8; i++ {
		rec := loadgen.SyntheticRecord(1, i, "r0")
		rec.Version = fmt.Sprintf("v%d", i)
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
		shardsUsed[history.ShardForKey(rec.App, rec.Version, 4)] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("fixture landed on %d shards, need at least 2", len(shardsUsed))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean: exit 0, sharded report with one section per shard.
	code, rep := fsck("-store", dir)
	if code != 0 {
		t.Fatalf("clean sharded store: exit %d, findings %+v", code, rep.Findings)
	}
	if !rep.Sharded || rep.ShardCount != 4 || len(rep.Shards) != 4 {
		t.Fatalf("report sharded=%v count=%d sections=%d, want a 4-shard report", rep.Sharded, rep.ShardCount, len(rep.Shards))
	}
	if rep.Records != 8 || rep.Misplaced != 0 {
		t.Fatalf("clean report: %d records, %d misplaced, want 8 and 0", rep.Records, rep.Misplaced)
	}
	perShard := 0
	for _, sh := range rep.Shards {
		perShard += sh.Records
	}
	if perShard != 8 {
		t.Errorf("per-shard sections count %d records, want 8", perShard)
	}

	// A record on the wrong shard is residue: exit 1, misplaced counted,
	// the finding in the holding shard's section.
	app := loadgen.StoreApp
	home := history.ShardForKey(app, "v0", 4)
	wrong := (home + 1) % 4
	name := fmt.Sprintf("%s-v0-r0.json", app)
	shardDir := func(i int) string {
		return filepath.Join(dir, history.ShardsDirName, fmt.Sprintf("%02d", i))
	}
	if err := os.Rename(filepath.Join(shardDir(home), name), filepath.Join(shardDir(wrong), name)); err != nil {
		t.Fatal(err)
	}
	code, rep = fsck("-store", dir)
	if code != 1 {
		t.Fatalf("misplaced record: exit %d, want 1", code)
	}
	if rep.Misplaced != 1 {
		t.Fatalf("misplaced count = %d, want 1", rep.Misplaced)
	}
	found := false
	for _, sh := range rep.Shards {
		for _, f := range sh.Findings {
			if sh.Shard == wrong && f.Path == name && f.Severity == history.FsckResidue {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("placement finding missing from shard %02d section: %+v", wrong, rep.Shards)
	}

	// -repair moves it home (exit still reflects what was found), after
	// which the store grades clean again.
	if code, _ = fsck("-repair", "-store", dir); code != 1 {
		t.Fatalf("repair pass: exit %d, want 1", code)
	}
	if code, rep = fsck("-store", dir); code != 0 || rep.Misplaced != 0 {
		t.Fatalf("after repair: exit %d, %d misplaced, want clean", code, rep.Misplaced)
	}

	// Corruption inside one shard grades the whole store 2, outranking
	// any residue, and names the shard section holding it.
	bogus := filepath.Join(shardDir(home), app+"-v0-zz.json")
	if err := os.WriteFile(bogus, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(shardDir(home), name), filepath.Join(shardDir(wrong), name)); err != nil {
		t.Fatal(err)
	}
	code, rep = fsck("-store", dir)
	if code != 2 {
		t.Fatalf("corrupt shard: exit %d, want 2", code)
	}
	corruptFound := false
	for _, sh := range rep.Shards {
		for _, f := range sh.Findings {
			if sh.Shard == home && f.Severity == history.FsckCorrupt && strings.Contains(f.Path, "v0-zz") {
				corruptFound = true
			}
		}
	}
	if !corruptFound {
		t.Fatalf("corrupt record not reported in shard %02d section: %+v", home, rep.Shards)
	}
}

// TestCLIFlagSurface pins the daemon and harness flag surfaces — names,
// defaults and help text, as `-h` prints them — against
// testdata/flags.golden, so a new knob fails a test instead of passing a
// hand check. After a deliberate flag change, regenerate the golden from
// the new binaries (each tool's `-h` output minus its "Usage of" line,
// under a "== TOOL -h ==" header).
func TestCLIFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := []string{"pcd", "pcload", "pcfeed", "pcfsck"}
	bin := buildTools(t, tools...)
	var got strings.Builder
	for _, tool := range tools {
		out, err := exec.Command(filepath.Join(bin, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		_, flags, _ := strings.Cut(string(out), "\n")
		fmt.Fprintf(&got, "== %s -h ==\n%s", tool, flags)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag surface differs from testdata/flags.golden:\n%s", got.String())
	}
}

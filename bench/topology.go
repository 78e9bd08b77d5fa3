package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/replica"
	"repro/internal/server"
)

// topoSpec is what a workload asks of the system under test. The zero
// value is the shipped default: one plain durable store, -wal-sync
// always, no replication.
type topoSpec struct {
	Shards     int
	WALSync    string // "" = always
	Replicated bool   // primary -replicas 1 -ack-quorum 1 -auto-failover + one follower
	EvalBudget int    // -ingest-eval-budget; 0 = default
	// IngestQueue is -ingest-queue; 0 = default (8). A reporter at full
	// speed fills the default queue, is refused with 429 + Retry-After: 1
	// and sleeps a second; a queue that holds one whole stream (22
	// batches) keeps every op unrefused.
	IngestQueue int
}

func (s topoSpec) sync() string {
	if s.WALSync == "" {
		return "always"
	}
	return s.WALSync
}

// node is one running pcd, a child process or hosted in this process.
type node struct {
	role string
	url  string
	dir  string
	cmd  *exec.Cmd    // child mode
	stop func() error // in-process mode
}

// topology is the running system: the node clients talk to plus, when
// replicated, its follower.
type topology struct {
	primary  *node
	follower *node
	// startFollower is deferred until after prefill, so the follower
	// bootstraps from a snapshot of a filled store (replica.bootstrap_s).
	startFollower func() (*node, error)
}

func (t *topology) nodes() []*node {
	out := []*node{t.primary}
	if t.follower != nil {
		out = append(out, t.follower)
	}
	return out
}

// startChild launches one pcd and waits for its serving line and for
// /healthz to answer ok.
func startChild(pcdBin, role, dir string, args ...string) (*node, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-store", dir, "-create"}, args...)
	cmd := exec.Command(pcdBin, full...)
	// A benchmark that dies must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	logPath := dir + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start pcd (%s): %w", role, err)
	}
	logf.Close()
	handshake := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.Contains(line, "pcd: serving on http://") {
				handshake <- line
				sent = true
			}
		}
		if !sent {
			close(handshake)
		}
	}()
	n := &node{role: role, dir: dir, cmd: cmd}
	select {
	case line, ok := <-handshake:
		if !ok {
			cmd.Wait()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("pcd (%s) exited before serving: %s", role, strings.TrimSpace(string(tail)))
		}
		i := strings.Index(line, "http://")
		j := strings.Index(line, " (store")
		if j < i {
			n.kill()
			return nil, fmt.Errorf("pcd (%s) handshake line unexpected: %q", role, line)
		}
		n.url = line[i:j]
	case <-time.After(60 * time.Second):
		n.kill()
		return nil, fmt.Errorf("pcd (%s) did not print its serving line within 60s", role)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.New(n.url).WaitHealthy(ctx); err != nil {
		n.kill()
		return nil, fmt.Errorf("pcd (%s): %w", role, err)
	}
	return n, nil
}

func (n *node) kill() {
	if n.cmd != nil && n.cmd.Process != nil {
		n.cmd.Process.Kill()
		n.cmd.Wait()
	}
}

// drain stops the node the way an operator does — SIGTERM, wait for the
// clean exit — so the store it leaves is what a restart would find.
func (n *node) drain() error {
	if n.stop != nil {
		return n.stop()
	}
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("pcd (%s) exited with %v after SIGTERM", n.role, err)
		}
		return nil
	case <-time.After(60 * time.Second):
		n.cmd.Process.Kill()
		<-done
		return fmt.Errorf("pcd (%s) did not stop within 60s of SIGTERM", n.role)
	}
}

// childArgs renders spec as pcd flags; everything not named here is the
// shipped default.
func childArgs(spec topoSpec) []string {
	args := []string{"-wal-sync", spec.sync()}
	if spec.Shards > 0 {
		args = append(args, "-shards", strconv.Itoa(spec.Shards))
	}
	if spec.EvalBudget > 0 {
		args = append(args, "-ingest-eval-budget", strconv.Itoa(spec.EvalBudget))
	}
	if spec.IngestQueue > 0 {
		args = append(args, "-ingest-queue", strconv.Itoa(spec.IngestQueue))
	}
	if spec.Replicated {
		args = append(args, "-replicas", "1", "-ack-quorum", "1", "-auto-failover")
	}
	return args
}

// startChildren starts real pcd processes for spec under work.
func startChildren(pcdBin, work string, spec topoSpec) (*topology, error) {
	prim, err := startChild(pcdBin, "primary", filepath.Join(work, "primary"), childArgs(spec)...)
	if err != nil {
		return nil, err
	}
	t := &topology{primary: prim}
	if spec.Replicated {
		t.startFollower = func() (*node, error) {
			return startChild(pcdBin, "follower", filepath.Join(work, "follower"),
				"-wal-sync", spec.sync(), "-follow", prim.url, "-auto-failover")
		}
	}
	return t, nil
}

// procCPU returns the CPU seconds (user + system) a live process has
// used, from /proc/<pid>/stat. Ticks are 1/100 s on Linux.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / 100, nil
}

// procPeakRSS returns a live process's VmHWM in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// childCPU sums procCPU over the topology's child processes.
func (t *topology) childCPU() (float64, error) {
	var sum float64
	for _, n := range t.nodes() {
		c, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (t *topology) childPeakRSS() (float64, error) {
	var sum float64
	for _, n := range t.nodes() {
		m, err := procPeakRSS(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

// selfCPU is this process's CPU seconds so far.
func selfCPU() float64 {
	c, err := procCPU(os.Getpid())
	if err != nil {
		return 0
	}
	return c
}

// hostInProcess builds the same stack cmd/pcd builds, from the same
// public constructors, inside this process, with the timing decorators
// at the seams: a Backend wrapper under the store, a Storage wrapper
// inside and (when replicated) outside the replication gate, and an
// http.Handler wrapper around the service.
func hostInProcess(work string, spec topoSpec, rec *recorder) (*topology, error) {
	sync, err := history.ParseSyncPolicy(spec.sync())
	if err != nil {
		return nil, err
	}
	dopts := history.DurableOptions{
		Create:     true,
		WAL:        true,
		WALOptions: history.WALOptions{Sync: sync},
		Wrap:       func(b history.Backend) history.Backend { return &tracedBackend{Backend: b, rec: rec} },
	}
	if spec.Replicated {
		dopts.Replicas = 1
	}
	dir := filepath.Join(work, "primary")
	st, err := history.OpenStoreAuto(dir, spec.Shards, dopts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	self := "http://" + ln.Addr().String()

	var serveSt history.Storage = &tracedStorage{Storage: st, rec: rec, layer: "history"}
	var rnode *replica.Node
	var det *replica.Detector
	if spec.Replicated {
		prim, err := replica.NewPrimary(st, 1)
		if err != nil {
			ln.Close()
			st.Close()
			return nil, err
		}
		prim.SetQuorum(1)
		prim.SetLeaseTTL(3 * time.Second)
		prim.SetPeersPath(replica.PeersFilePath(st.Dir()))
		dcfg := replica.DetectorConfig{Advertise: self, LeaseTTL: 3 * time.Second}
		if ss, ok := st.(*history.ShardedStore); ok {
			ss.SetFailover(replica.NewFailover(prim), true)
			dcfg.ShardHealth = ss.ShardStats
			dcfg.PromoteShard = ss.FailoverPromote
		}
		serveSt = &tracedStorage{Storage: replica.Gate(serveSt, prim), rec: rec, layer: "gate"}
		rnode = &replica.Node{Primary: prim, Advertise: self}
		det = replica.NewDetector(prim, dcfg)
		det.Start()
	}
	srv := server.New(harness.NewEnv(serveSt), server.Options{
		SessionRetries: 1,
		Ingest:         ingest.ManagerOptions{EvalBudget: spec.EvalBudget, QueueDepth: spec.IngestQueue},
		Replication:    rnode,
	})
	if err := srv.EnableSessionJournal(filepath.Join(st.Dir(), server.SessionsDirName), 2500); err != nil {
		ln.Close()
		st.Close()
		return nil, err
	}
	httpSrv := &http.Server{Handler: tracedHandler(rec, srv.Handler())}
	go httpSrv.Serve(ln)
	prim := &node{role: "primary", url: self, dir: dir}
	prim.stop = func() error {
		return stopServing(srv, httpSrv, st, func() {
			if det != nil {
				det.Stop()
			}
		})
	}
	t := &topology{primary: prim}
	if spec.Replicated {
		t.startFollower = func() (*node, error) { return hostFollower(work, spec, sync, self) }
	}
	return t, nil
}

// hostFollower is the in-process form of `pcd -follow URL`.
func hostFollower(work string, spec topoSpec, sync history.SyncPolicy, primaryURL string) (*node, error) {
	dir := filepath.Join(work, "follower")
	st, err := history.OpenStoreAuto(dir, spec.Shards, history.DurableOptions{
		Create: true, WAL: true, WALOptions: history.WALOptions{Sync: sync},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	self := "http://" + ln.Addr().String()
	fol, err := replica.NewFollower(primaryURL, self, st)
	if err != nil {
		ln.Close()
		st.Close()
		return nil, err
	}
	srv := server.New(harness.NewEnv(st), server.Options{
		Replication: &replica.Node{Follower: fol, Advertise: self},
		WriteGate:   fol.Writable,
	})
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	fol.Start()
	n := &node{role: "follower", url: self, dir: dir}
	n.stop = func() error { return stopServing(srv, httpSrv, st, fol.Stop) }
	return n, nil
}

// stopServing is cmd/pcd's drain: stop the service, then the listener,
// then the replication role, then flush and close the journal.
func stopServing(srv *server.Server, httpSrv *http.Server, st history.Storage, stopRole func()) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	stopRole()
	if err := st.SyncWAL(); err != nil {
		return err
	}
	return st.Close()
}

// attachFollower starts the follower (when the topology has one) and
// waits until it has caught up with the primary's journal head,
// returning how long that took.
func (t *topology) attachFollower(ctx context.Context) (time.Duration, error) {
	if t.startFollower == nil {
		return 0, nil
	}
	start := time.Now()
	f, err := t.startFollower()
	if err != nil {
		return 0, err
	}
	t.follower = f
	if err := t.waitCaughtUp(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// replLag reads the primary's /statsz and returns the largest
// head − ack distance over shards, and whether every shard has an
// attached follower.
func (t *topology) replLag(ctx context.Context) (lag uint64, attached bool, st *server.StatsResponse, err error) {
	st, err = client.New(t.primary.url).Stats(ctx)
	if err != nil {
		return 0, false, nil, err
	}
	if st.Replication == nil {
		return 0, false, st, nil
	}
	attached = true
	for _, sh := range st.Replication.Shards {
		if len(sh.Followers) == 0 {
			attached = false
			continue
		}
		for _, f := range sh.Followers {
			if f.LagFrames > lag {
				lag = f.LagFrames
			}
		}
	}
	return lag, attached, st, nil
}

func (t *topology) waitCaughtUp(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		lag, attached, _, err := t.replLag(ctx)
		if err != nil {
			return err
		}
		if attached && lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after 60s (attached %v, lag %d frames)", attached, lag)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

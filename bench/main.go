// Command bench is the repository's benchmark: one command that
// measures pcd end to end on five workloads and, in a separate traced
// run, layer by layer from outside. See README.md in this directory.
//
// Usage (from the root of a checkout):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -seed N [-seconds S] [-out FILE] [-trace-out FILE]
//	bash bench/run.sh -aa -seed N
//
// The first form is the driver's contract: one workload, end to end
// (--trace 0) or traced (--trace 1), one JSON object on the last line.
// The second runs the whole matrix, every workload both ways. The third
// runs the end-to-end matrix twice on the same build and seed and fails
// if any metric differs by more than its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: the whole matrix)")
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same ops and record bytes")
		seconds      = flag.Float64("seconds", 10, "measured phase per workload, in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end to end against pcd child processes, 1 = traced in-process run for the per-layer metrics")
		aa           = flag.Bool("aa", false, "run the end-to-end matrix twice on the same build and seed and compare")
		out          = flag.String("out", "", "write every metric of the run as JSON to this file")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans as JSON lines to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload NAME --trace 0|1] [--seed N] [--seconds S] [-aa] [-out FILE] [-trace-out FILE]")
		return 2
	}
	var wls []workload
	if *workloadName != "" {
		wl := workloadByName(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		wls = []workload{wl}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	work, err := mkWork(build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	// A signal ends the run through the same clean-up: the children die
	// with this process (Pdeathsig) and the stores are removed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(work)
		os.Exit(1)
	}()

	t0 := time.Now()
	// Refuse to start on a failed build rather than report numbers for a
	// stale binary.
	bin := filepath.Join(build, "bin", "pcd")
	if err := buildPcd(root, bin); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		root: root, work: work, pcdBin: bin,
		seed: *seed, seconds: *seconds,
		clients:  loadClients,
		traceOut: *traceOut,
	}
	printHeader(cfg, time.Since(t0))

	switch {
	case *aa:
		return runAA(cfg)
	case len(wls) == 1:
		return runOne(cfg, wls[0], *trace == 1, *out)
	default:
		return runMatrix(cfg, *out)
	}
}

// loadClients is the closed loop's width: one client, so one request in
// flight. pcd's callers are tools that each wait for their reply, and on
// the two processors this sandbox has, a second client would put the
// generator, its reference kernel and two requests' worth of daemon
// (three with a follower) on them at once — the run would measure the
// scheduler. With one, whatever is running is the op being timed.
const loadClients = 1

// gateWorkers is how wide the gate's read-only checks run.
func gateWorkers() int { return min(runtime.NumCPU(), 4) }

// findRoot walks up from the working directory to the checkout root:
// the directory whose go.mod declares module repro and that holds
// cmd/pcd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "pcd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout of module repro (go.mod + cmd/pcd) at or above the working directory")
		}
		dir = parent
	}
}

func mkWork(build string) (string, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(build, "run-")
}

func buildPcd(root, bin string) error {
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pcd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/pcd: %v\n%s", err, out)
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(cfg runConfig, build time.Duration) {
	fmt.Printf("# pcd benchmark: seed %d, %gs measured per workload after a fixed warm-up, %d closed-loop client; end-to-end times are at the reference pace (bench/ref.go)\n",
		cfg.seed, cfg.seconds, cfg.clients)
	fmt.Printf("# nproc %d, GOMAXPROCS %d, %s, cpu %q, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit(cfg.root))
	fmt.Printf("# pcd build %s; loopback, no injected delay: latency is this sandbox's processor and fsync time, not a device's or a network's\n",
		build.Round(time.Millisecond))
}

// wire is the driver's result object.
type wire struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) addTo(into *wire, defs []metricDef, prefix string) {
	into.Attempted += r.attempted
	into.Failed += r.failed
	into.Correct = into.Correct && r.correct
	for _, d := range defs {
		v := r.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		into.Metrics[prefix+d.Name] = wireValue{Value: v, Unit: d.Unit}
	}
}

func (r *result) print(defs []metricDef, mode string) {
	fmt.Printf("\n== %s (%s): %d ops attempted, %d failed, correct=%v\n", r.workload, mode, r.attempted, r.failed, r.correct)
	fmt.Printf("   headline op: %s\n", workloadByName(r.workload).Headline())
	for _, p := range r.phases {
		fmt.Printf("   phase %-44s %s\n", p.name, p.d.Round(time.Millisecond))
	}
	for _, e := range r.errs {
		fmt.Printf("   ERROR %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Printf("   note  %s\n", n)
	}
	for _, d := range defs {
		if !d.on(r.workload) {
			continue
		}
		line := fmt.Sprintf("   %-36s %14.4f %-6s (%s is better)", d.Name, r.metrics[d.Name], d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(" [bound %.0f%%]", d.Bound*100)
		}
		if n, ok := r.counts[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
}

func emit(w *wire) {
	data, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

func writeOut(path string, w *wire) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAndPrint runs one workload in one mode, prints its report and adds
// it to w under prefix. It reports whether the run produced a result.
func runAndPrint(cfg runConfig, wl workload, traced bool, prefix string, w *wire) bool {
	run, defs, mode := runEndToEnd, endToEnd, "end to end"
	if traced {
		run, defs, mode = runTraced, perLayer, "traced"
	}
	res, err := run(cfg, wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name(), err)
		return false
	}
	res.print(defs, mode)
	res.addTo(w, defs, prefix)
	return true
}

// finish writes -out and the last line, unless the gate failed: then
// there is no result at all.
func finish(w *wire, out string) int {
	if !w.Correct {
		fmt.Fprintln(os.Stderr, "bench: correctness gate failed")
		return 1
	}
	if err := writeOut(out, w); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	emit(w)
	return 0
}

// runOne is the driver's contract: one workload, one mode, one JSON
// object on the last line.
func runOne(cfg runConfig, wl workload, traced bool, out string) int {
	w := &wire{Correct: true, Metrics: map[string]wireValue{}}
	if !runAndPrint(cfg, wl, traced, "", w) {
		return 1
	}
	return finish(w, out)
}

// runMatrix runs every workload end to end, then every workload
// traced, and reports each metric as workload/name.
func runMatrix(cfg runConfig, out string) int {
	w := &wire{Correct: true, Metrics: map[string]wireValue{}}
	for _, traced := range []bool{false, true} {
		for _, wl := range allWorkloads() {
			c := cfg
			if c.traceOut != "" {
				c.traceOut = strings.TrimSuffix(cfg.traceOut, ".jsonl") + "." + wl.Name() + ".jsonl"
			}
			if !runAndPrint(c, wl, traced, wl.Name()+"/", w) {
				return 1
			}
		}
	}
	return finish(w, out)
}

// runAA runs the end-to-end matrix twice on one build and one seed and
// holds every metric to its own bound. A metric that cannot pass this
// does not belong in the end-to-end list.
func runAA(cfg runConfig) int {
	var runs [2]map[string]*result
	for i := range runs {
		runs[i] = map[string]*result{}
		for _, wl := range allWorkloads() {
			res, err := runEndToEnd(cfg, wl)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name(), err)
				return 1
			}
			if !res.correct {
				res.print(endToEnd, "end to end")
				fmt.Fprintf(os.Stderr, "bench: %s: correctness gate failed\n", wl.Name())
				return 1
			}
			runs[i][wl.Name()] = res
		}
	}
	fmt.Printf("\n== A/A: two runs of the same build, seed %d\n", cfg.seed)
	code := 0
	for _, wl := range allWorkloads() {
		for _, d := range endToEnd {
			a, b := runs[0][wl.Name()].metrics[d.Name], runs[1][wl.Name()].metrics[d.Name]
			rel := 0.0
			if a != 0 {
				rel = math.Abs(b-a) / math.Abs(a)
			}
			verdict := "ok"
			if rel > d.Bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("   %-18s %-14s %12.4f %12.4f %-5s diff %5.1f%% [bound %.0f%%] %s\n",
				wl.Name(), d.Name, a, b, d.Unit, rel*100, d.Bound*100, verdict)
		}
	}
	return code
}

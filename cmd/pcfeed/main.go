// Command pcfeed drives live sample streams into a pcd: it builds N
// concurrent simulated applications of the workload archetypes with
// known bottleneck signatures (mw, pipeline), attaches an
// ingest.Reporter to each, and ships their activity intervals to the
// daemon's streaming intake in waves — every stream in a wave runs
// concurrently, and the next wave starts only when the previous one has
// finalized, so harvesting streams see the earlier waves' records in
// the store. It is the feeding half of the paper's online loop: pcd
// diagnoses the streams incrementally as the samples land, and pcquery
// reads the finalized records back.
//
// Usage:
//
//	pcfeed [-server URL | -store DIR] [-apps mw,pipeline] [-streams 8]
//	       [-waves 3] [-seed 1] [-harvest] [-compare] [-batch 64]
//	       [-max-time 20] [-eval-budget 24] [-out FILE] [-pr N]
//	       [-check] [-v]
//
// By default pcfeed self-hosts a fresh pcd over -store DIR (a
// temporary directory, removed afterwards, when -store is not given),
// so the run leaves a store that pcfsck can grade. With -server URL it
// feeds an existing daemon instead.
//
// Every stream registers its archetype's known bottleneck signature as
// a watch, so the daemon reports steps-to-signature: the refinement
// step count at which every watched (hypothesis : focus) pair had
// concluded true. -harvest makes streams request historical directives;
// -compare runs the whole schedule twice over fresh stores — harvest
// off, then on — and reports the steps-to-signature reduction in later
// waves (the online-value number BENCH_PR8.json records). After the
// waves, pcfeed sweeps every finalized run back over the wire and
// checks the stored true set matches what the stream concluded.
//
// -check exits non-zero unless every stream finalized, the read-back
// sweep is clean, and (-compare) harvesting reduced mean
// steps-to-signature.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/node"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcfeed: ")
	var (
		serverURL = flag.String("server", "", "feed an existing pcd at this URL instead of self-hosting")
		storeDir  = flag.String("store", "", "self-hosted store directory, kept afterwards (default: fresh temp dir, removed)")
		shards    = flag.Int("shards", 0, "shard count for a created self-hosted store")
		appsFlag  = flag.String("apps", "mw,pipeline", "comma-separated workload archetypes to stream (must have known signatures)")
		streams   = flag.Int("streams", 8, "concurrent streams per wave")
		waves     = flag.Int("waves", 3, "waves of streams (each waits for the previous)")
		seed      = flag.Int64("seed", 1, "base RNG seed; stream i of wave w simulates with seed+1009*w+i")
		harvest   = flag.Bool("harvest", false, "streams request historically harvested directives")
		compare   = flag.Bool("compare", false, "run twice over fresh stores (harvest off, then on) and report the reduction; self-hosted only")
		batch     = flag.Int("batch", 64, "samples per shipped batch")
		maxTime   = flag.Float64("max-time", 20, "virtual seconds each simulated run executes")
		budget    = flag.Int("eval-budget", 24, "self-hosted daemon's incremental evaluations per batch")
		out       = flag.String("out", "", "write the JSON artifact to this file")
		pr        = flag.Int("pr", 0, "PR number to stamp into the artifact")
		check     = flag.Bool("check", false, "exit non-zero unless every stream finalized, read back clean, and (-compare) harvesting won")
		verbose   = flag.Bool("v", false, "log per-stream progress")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Println("usage: pcfeed [-server URL | -store DIR] [-apps LIST] [-streams N] [-waves N] [-harvest] [-compare] [-out FILE]")
		os.Exit(2)
	}
	if *compare && *serverURL != "" {
		log.Fatal("-compare needs fresh stores per pass; it cannot run against an external -server")
	}

	apps := strings.Split(*appsFlag, ",")
	for _, name := range apps {
		if _, err := app.KnownBottlenecks(name, app.Options{}); err != nil {
			log.Fatal(err)
		}
	}

	cfg := feedConfig{
		apps: apps, streams: *streams, waves: *waves, seed: *seed,
		batch: *batch, maxTime: *maxTime, budget: *budget,
		shards: *shards, verbose: *verbose,
	}

	art := &artifact{
		PR: *pr, GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Apps: apps, Streams: *streams, Waves: *waves, Seed: *seed,
		MaxTime: *maxTime,
	}
	ok := true
	switch {
	case *compare:
		off, err := runPass(cfg, "", *storeDir, false, "off")
		if err != nil {
			log.Fatal(err)
		}
		on, err := runPass(cfg, "", *storeDir, true, "on")
		if err != nil {
			log.Fatal(err)
		}
		art.Passes = []passReport{*off, *on}
		if off.LaterMeanWatchSteps > 0 {
			art.WatchStepsReductionPct = 100 * (off.LaterMeanWatchSteps - on.LaterMeanWatchSteps) / off.LaterMeanWatchSteps
		}
		fmt.Printf("harvest off: later-wave mean steps-to-signature %.1f\n", off.LaterMeanWatchSteps)
		fmt.Printf("harvest on:  later-wave mean steps-to-signature %.1f  (%.1f%% fewer)\n",
			on.LaterMeanWatchSteps, art.WatchStepsReductionPct)
		ok = passOK(off) && passOK(on) && on.LaterMeanWatchSteps < off.LaterMeanWatchSteps
	default:
		p, err := runPass(cfg, *serverURL, *storeDir, *harvest, "run")
		if err != nil {
			log.Fatal(err)
		}
		art.Passes = []passReport{*p}
		ok = passOK(p)
	}
	for _, p := range art.Passes {
		for _, wr := range p.Waves {
			fmt.Printf("harvest=%-5v wave %d: %d streams, %d errors, mean steps %.1f, mean steps-to-signature %.1f, mean directives %.1f\n",
				p.Harvest, wr.Wave, wr.Streams, wr.Errors, wr.MeanSteps, wr.MeanWatchSteps, wr.MeanDirectives)
		}
	}

	if *out != "" {
		if err := art.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *check && !ok {
		log.Fatal("correctness bar not met")
	}
}

type feedConfig struct {
	apps    []string
	streams int
	waves   int
	seed    int64
	batch   int
	maxTime float64
	budget  int
	shards  int
	verbose bool
}

// streamResult is one stream's outcome.
type streamResult struct {
	app   string
	runID string
	resp  *ingest.EndResponse
	err   error
}

// waveReport summarizes one wave of a pass.
type waveReport struct {
	Wave    int `json:"wave"`
	Streams int `json:"streams"`
	Errors  int `json:"errors,omitempty"`
	// SignatureHits counts streams whose watched signature fully
	// concluded true before end of stream.
	SignatureHits int `json:"signature_hits"`
	// MeanSteps is the mean total refinement steps per stream;
	// MeanWatchSteps the mean step count at which the known bottleneck
	// signature had concluded (over streams that reached it).
	MeanSteps      float64 `json:"mean_steps"`
	MeanWatchSteps float64 `json:"mean_watch_steps"`
	MeanDirectives float64 `json:"mean_directives"`
}

// passReport is one full schedule (all waves) under one harvest
// setting.
type passReport struct {
	Harvest bool         `json:"harvest"`
	Waves   []waveReport `json:"waves"`
	// LaterMeanWatchSteps averages mean_watch_steps over waves after the
	// first — the streams for which history existed to harvest.
	LaterMeanWatchSteps float64 `json:"later_mean_watch_steps"`
	ReadBackErrors      int     `json:"read_back_errors"`
}

type artifact struct {
	PR      int          `json:"pr,omitempty"`
	GoOS    string       `json:"goos"`
	GoArch  string       `json:"goarch"`
	Apps    []string     `json:"apps"`
	Streams int          `json:"streams"`
	Waves   int          `json:"waves"`
	Seed    int64        `json:"seed"`
	MaxTime float64      `json:"max_time"`
	Passes  []passReport `json:"passes"`
	// WatchStepsReductionPct is the -compare headline: how much
	// harvesting cut later-wave mean steps-to-signature.
	WatchStepsReductionPct float64 `json:"watch_steps_reduction_pct,omitempty"`
}

func (a *artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func passOK(p *passReport) bool {
	if p.ReadBackErrors > 0 {
		return false
	}
	for _, wr := range p.Waves {
		if wr.Errors > 0 || wr.SignatureHits == 0 {
			return false
		}
	}
	return true
}

// runPass executes the full wave schedule once. With serverURL empty it
// self-hosts a daemon over storeDir (or a temp dir); -compare calls it
// twice, each time over a fresh store.
func runPass(cfg feedConfig, serverURL, storeDir string, harvestOn bool, label string) (*passReport, error) {
	cl := client.NewResilient(serverURL, 8)
	var hosted *node.Node
	if serverURL == "" {
		dir := storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "pcfeed-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else if label != "run" {
			// -compare passes each get their own store under -store.
			dir = dir + "-" + label
		}
		// The node cmd/pcd runs, over a store created under dir, on loopback.
		var err error
		hosted, err = node.Open(node.Config{
			Addr:   "127.0.0.1:0",
			Dir:    dir,
			Shards: cfg.shards,
			Store:  history.DurableOptions{Create: true, WAL: true},
			Server: server.Options{Ingest: ingest.ManagerOptions{EvalBudget: cfg.budget}},
		})
		if err != nil {
			return nil, err
		}
		cl = client.NewResilient(hosted.URL, 8)
	}

	rep := &passReport{Harvest: harvestOn}
	var results []streamResult
	for w := 0; w < cfg.waves; w++ {
		wave := feedWave(cl, cfg, w, harvestOn, label)
		results = append(results, wave...)
		rep.Waves = append(rep.Waves, summarize(w, wave))
	}
	rep.ReadBackErrors = readBack(cl, results, cfg.verbose)

	var sum float64
	var n int
	for _, wr := range rep.Waves[min(1, len(rep.Waves)-1):] {
		if wr.MeanWatchSteps > 0 {
			sum += wr.MeanWatchSteps
			n++
		}
	}
	if n > 0 {
		rep.LaterMeanWatchSteps = sum / float64(n)
	}

	if hosted != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hosted.Close(ctx); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// feedWave runs one wave: cfg.streams concurrent simulated runs, each
// streamed through its own Reporter, all finalized before return.
func feedWave(cl *client.Client, cfg feedConfig, wave int, harvestOn bool, label string) []streamResult {
	results := make([]streamResult, cfg.streams)
	var wg sync.WaitGroup
	for i := 0; i < cfg.streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := cfg.apps[i%len(cfg.apps)]
			runID := fmt.Sprintf("%s-w%02d-%03d", label, wave, i)
			resp, err := feedStream(cl, cfg, name, runID, cfg.seed+1009*int64(wave)+int64(i), harvestOn)
			results[i] = streamResult{app: name, runID: runID, resp: resp, err: err}
			if cfg.verbose {
				if err != nil {
					log.Printf("%s %s: %v", name, runID, err)
				} else {
					log.Printf("%s %s: %d samples, %d steps, signature at %d, %d directives",
						name, runID, resp.Samples, resp.Steps, resp.WatchSteps, resp.Directives)
				}
			}
		}(i)
	}
	wg.Wait()
	return results
}

// feedStream simulates one run of the named archetype and streams it.
func feedStream(cl *client.Client, cfg feedConfig, name, runID string, seed int64, harvestOn bool) (*ingest.EndResponse, error) {
	a, err := app.Build(name, "", app.Options{})
	if err != nil {
		return nil, err
	}
	s, err := a.NewSimulator(sim.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	sig, err := app.KnownBottlenecks(name, app.Options{})
	if err != nil {
		return nil, err
	}
	watch := make([]ingest.Watch, len(sig))
	for i, b := range sig {
		watch[i] = ingest.Watch{Hyp: b.Hyp, Path: b.Path}
	}
	rep := ingest.NewReporter(context.Background(), cl, name, "", runID, ingest.ReporterOptions{
		BatchSize: cfg.batch,
		Harvest:   harvestOn,
		Watch:     watch,
	})
	if _, err := rep.Start(); err != nil {
		return nil, err
	}
	s.AddObserver(rep)
	if err := s.Run(cfg.maxTime); err != nil {
		rep.Discard()
		return nil, err
	}
	return rep.Finish(cfg.maxTime)
}

// summarize folds one wave's stream results into its report row.
func summarize(wave int, results []streamResult) waveReport {
	wr := waveReport{Wave: wave, Streams: len(results)}
	var steps, watch, dirs float64
	var watched int
	for _, r := range results {
		if r.err != nil {
			wr.Errors++
			continue
		}
		steps += float64(r.resp.Steps)
		dirs += float64(r.resp.Directives)
		if r.resp.WatchSteps > 0 {
			wr.SignatureHits++
			watch += float64(r.resp.WatchSteps)
			watched++
		}
	}
	if n := len(results) - wr.Errors; n > 0 {
		wr.MeanSteps = steps / float64(n)
		wr.MeanDirectives = dirs / float64(n)
	}
	if watched > 0 {
		wr.MeanWatchSteps = watch / float64(watched)
	}
	return wr
}

// readBack sweeps every finalized run over the wire and checks the
// stored record's true set matches the stream's reported bottlenecks.
func readBack(cl *client.Client, results []streamResult, verbose bool) int {
	ctx := context.Background()
	bad := 0
	for _, r := range results {
		if r.err != nil || r.resp == nil || r.resp.Saved == "" {
			continue
		}
		rec, err := cl.GetRun(ctx, r.app, ":"+r.runID)
		if err != nil {
			log.Printf("read-back %s %s: %v", r.app, r.runID, err)
			bad++
			continue
		}
		var trues []string
		for _, nr := range rec.Results {
			if nr.State == "true" {
				trues = append(trues, nr.Hyp+" "+nr.Focus)
			}
		}
		sort.Strings(trues)
		if !equalStrings(trues, r.resp.Bottlenecks) {
			log.Printf("read-back %s %s: stored true set %v != streamed %v", r.app, r.runID, trues, r.resp.Bottlenecks)
			bad++
		} else if verbose {
			log.Printf("read-back %s %s: ok (%d bottlenecks)", r.app, r.runID, len(trues))
		}
	}
	return bad
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

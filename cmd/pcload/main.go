// Command pcload is the sustained-traffic load harness: it drives a
// live pcd with the declarative scenario suites under suites/ —
// workload mix × key distribution × fault mix × WAL sync policy × store
// size, under a fixed RNG seed — and reports per-op-class latency
// quantiles, throughput, error counts, and /statsz deltas as a JSON
// artifact. Every run ends with a correctness sweep: a read-back of all
// acknowledged writes and (self-hosted) a pcfsck-clean store.
//
// Usage:
//
//	pcload [-suites DIR] [-suite NAME[,NAME...]] [-out FILE] [-pr N]
//	       [-server URL] [-dir DIR] [-shards N] [-check] [-v]
//
// By default pcload self-hosts a fresh pcd per suite over a temporary
// store, so suites control the full serving stack (-wal-sync policy,
// fault injection) and the store can be fscked afterwards. With
// -server URL it drives an existing daemon instead; verification then
// runs over the wire and the fsck pass is skipped.
//
// -check exits non-zero unless every suite passes the correctness bar
// (non-zero throughput, zero acked-write loss, fsck-clean) — the CI
// smoke mode.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcload: ")
	suitesDir := flag.String("suites", "suites", "directory holding *.toml scenario suites")
	suiteList := flag.String("suite", "", "comma-separated suite names to run (default: all in -suites)")
	out := flag.String("out", "", "write the JSON artifact to this file")
	pr := flag.Int("pr", 0, "PR number to stamp into the artifact")
	serverURL := flag.String("server", "", "drive an existing pcd at this URL instead of self-hosting")
	dir := flag.String("dir", "", "self-hosted store directory, kept afterwards (default: fresh temp dir, removed)")
	shards := flag.Int("shards", 0, "override the suites' shard count (self-hosted only)")
	check := flag.Bool("check", false, "exit non-zero unless every suite passes the correctness bar")
	verbose := flag.Bool("v", false, "log per-suite progress")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Println("usage: pcload [-suites DIR] [-suite NAME,...] [-out FILE] [-server URL] [-check]")
		os.Exit(2)
	}

	paths, err := suitePaths(*suitesDir, *suiteList)
	if err != nil {
		log.Fatal(err)
	}

	opt := loadgen.Options{ServerURL: *serverURL, Dir: *dir}
	if *verbose {
		opt.Logf = log.Printf
	}
	artifact := loadgen.NewArtifact(*pr)
	failed := 0
	for _, path := range paths {
		sc, err := loadgen.LoadScenario(path)
		if err != nil {
			log.Fatal(err)
		}
		if *shards > 0 {
			sc.Shards = *shards
		}
		rep, err := loadgen.RunSuite(sc, opt)
		if err != nil {
			log.Fatal(err)
		}
		artifact.Suites = append(artifact.Suites, *rep)
		verdict := "pass"
		if err := rep.Passed(); err != nil {
			verdict = "FAIL: " + err.Error()
			failed++
		}
		fmt.Printf("%-24s %7d ops %8.1f ops/s  errors %d  unavailable %d  fenced %d  %s\n",
			sc.Name, rep.Ops, rep.OpsPerSec, rep.Errors, rep.Unavailable, rep.Fenced, verdict)
		for _, cr := range rep.Classes {
			fmt.Printf("  %-10s %7d ops  p50 %8.2fms  p99 %8.2fms  p999 %8.2fms\n",
				cr.Class, cr.Ops, cr.P50Ms, cr.P99Ms, cr.P999Ms)
		}
	}

	if *out != "" {
		if err := artifact.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d suites)\n", *out, len(artifact.Suites))
	}
	if *check && failed > 0 {
		log.Fatalf("%d of %d suites failed the correctness bar", failed, len(paths))
	}
}

// suitePaths resolves the -suite selection against the suites directory:
// an explicit comma-separated list (each name NAME or NAME.toml), or
// every *.toml in the directory, sorted by name.
func suitePaths(dir, list string) ([]string, error) {
	if list != "" {
		var paths []string
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !strings.HasSuffix(name, ".toml") {
				name += ".toml"
			}
			path := filepath.Join(dir, name)
			if _, err := os.Stat(path); err != nil {
				return nil, fmt.Errorf("suite %s: %w", name, err)
			}
			paths = append(paths, path)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("-suite selected no suites")
		}
		return paths, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.toml"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no *.toml suites in %s", dir)
	}
	sort.Strings(matches)
	return matches, nil
}

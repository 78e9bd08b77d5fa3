// Command pcbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	pcbench -exp table1|table2|table3|table4|ocean|combine|postmortem|ablation|scale|fig1|fig2|fig3|all
//	        [-trials N] [-parallel N] [-store DIR] [-wal] [-shards N]
//
// -parallel bounds the number of diagnosis sessions run concurrently
// (default: the number of CPUs). Because every session's state is
// confined to its own goroutine and the simulator is deterministic per
// seed, the rendered output is byte-identical for every -parallel value;
// -parallel 1 reproduces the fully sequential behaviour.
//
// -store persists every experiment's run records to an on-disk
// experiment store, browsable afterwards with pcquery; without it the
// experiments run against an in-memory store. The rendered output is
// identical either way: records round-trip through the same encoding.
// -wal additionally journals every store write ahead of the record
// files (the pcd durability layer); it changes nothing about the
// rendered output, only the store's crash safety. -shards N lays the
// store out as N consistent-hash shards; scatter-gather reads merge in
// canonical order, so the rendered output is byte-identical to the
// single-store (and in-memory) layouts at any shard count.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/harness"
	"repro/internal/history"
)

// render is the common tail of an experiment: its result's table.
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcbench: ")
	exp := flag.String("exp", "all", "experiment to regenerate")
	trials := flag.Int("trials", 3, "repeated runs per configuration (medians reported)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max concurrent diagnosis sessions (1 = sequential)")
	storeDir := flag.String("store", "", "directory to persist experiment run records (default: in-memory)")
	wal := flag.Bool("wal", false, "journal -store writes ahead of record files (crash safety)")
	shards := flag.Int("shards", 0, "open -store as a consistent-hash sharded layout with N shards (0 = single store, or whatever layout exists)")
	flag.Parse()

	// The experiments in the order "all" prints them; env is set below,
	// once the name is known to be one of these.
	var env *harness.Env
	experiments := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig1", harness.Figure1},
		{"fig2", harness.Figure2},
		{"fig3", harness.Figure3},
		{"table1", func() (string, error) { return render(env.Table1(*trials, *parallel)) }},
		{"table2", func() (string, error) { return render(harness.Table2(*trials, *parallel)) }},
		{"ocean", func() (string, error) { return render(harness.OceanThresholds(*trials, *parallel)) }},
		{"table3", func() (string, error) { return render(env.Table3(*trials, *parallel)) }},
		{"table4", func() (string, error) { return render(env.Table4(*parallel)) }},
		{"combine", func() (string, error) { return render(env.CombineStudy(*parallel)) }},
		{"postmortem", func() (string, error) { return render(env.PostmortemStudy(*parallel)) }},
		{"ablation", func() (string, error) { return render(env.Ablation(*parallel)) }},
		{"scale", func() (string, error) { return render(env.ScaleStudy(nil, *parallel)) }},
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "pcbench: unknown -exp %q (want %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}

	var st history.Storage
	if *storeDir != "" {
		var err error
		st, err = history.OpenStoreAuto(*storeDir, *shards, history.DurableOptions{Create: true, WAL: *wal})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
	} else if *shards > 0 {
		log.Fatal("-shards needs -store (an in-memory store has no shard layout)")
	}
	env = harness.NewEnv(st)

	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println(out)
	}
}

package core_test

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

// ExampleInferMappings reproduces the paper's Figure 3: the mapping
// directives linking version A's code resources to version B's renamed
// modules and functions are inferred automatically.
func ExampleInferMappings() {
	versionA := map[string][]string{"Code": {
		"/Code",
		"/Code/decomp.f", "/Code/decomp.f/decomp1d",
		"/Code/exchng1.f", "/Code/exchng1.f/exchng1",
		"/Code/oned.f", "/Code/oned.f/diff1d", "/Code/oned.f/main", "/Code/oned.f/setup",
		"/Code/sweep.f", "/Code/sweep.f/sweep1d",
	}}
	versionB := map[string][]string{"Code": {
		"/Code",
		"/Code/decomp.f", "/Code/decomp.f/decomp1d",
		"/Code/nbexchng.f", "/Code/nbexchng.f/nbexchng1",
		"/Code/onednb.f", "/Code/onednb.f/diff1d", "/Code/onednb.f/main", "/Code/onednb.f/setup",
		"/Code/nbsweep.f", "/Code/nbsweep.f/nbsweep",
	}}
	maps := core.InferMappings(versionA, versionB)
	fmt.Print(core.FormatMappings(maps))
	// Output:
	// map /Code/exchng1.f /Code/nbexchng.f
	// map /Code/oned.f /Code/onednb.f
	// map /Code/sweep.f /Code/nbsweep.f
	// map /Code/exchng1.f/exchng1 /Code/nbexchng.f/nbexchng1
	// map /Code/sweep.f/sweep1d /Code/nbsweep.f/nbsweep
}

// ExampleParseDirectives shows the search directive text format.
func ExampleParseDirectives() {
	input := `# source: poisson-A/run1
prune CPUbound /SyncObject
prune * /Machine
priority high ExcessiveSyncWaitingTime </Code/exchng1.f,/Machine,/Process,/SyncObject>
threshold ExcessiveSyncWaitingTime 0.12
`
	ds, err := core.ParseDirectives(strings.NewReader(input))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("source: %s\n", ds.Source)
	fmt.Printf("%d prunes, %d priorities, %d thresholds\n",
		len(ds.Prunes), len(ds.Priorities), len(ds.Thresholds))
	// Output:
	// source: poisson-A/run1
	// 2 prunes, 1 priorities, 1 thresholds
}

// ExampleApplyMappings rewrites a harvested directive into another
// execution's namespace before use, as the paper's Section 3.2 describes.
func ExampleApplyMappings() {
	ds := &core.DirectiveSet{
		Priorities: []core.PriorityDirective{{
			Hypothesis: "ExcessiveSyncWaitingTime",
			Focus:      "</Code/sweep.f/sweep1d,/Machine,/Process,/SyncObject>",
			Level:      2, // high
		}},
	}
	maps := []core.Mapping{
		{From: "/Code/sweep.f", To: "/Code/nbsweep.f"},
		{From: "/Code/sweep.f/sweep1d", To: "/Code/nbsweep.f/nbsweep"},
	}
	mapped, err := core.ApplyMappings(ds, maps)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	_ = core.WriteDirectives(os.Stdout, mapped)
	// Output:
	// priority high ExcessiveSyncWaitingTime </Code/nbsweep.f/nbsweep,/Machine,/Process,/SyncObject>
}

// ExampleCombine demonstrates the paper's A∩B combination: only pairs
// that tested the same way in both source runs keep their priority.
func ExampleCombine() {
	a, _ := core.ParseDirectives(strings.NewReader(
		"priority high H <x>\npriority high H <y>\npriority low H <z>\n"))
	b, _ := core.ParseDirectives(strings.NewReader(
		"priority high H <x>\npriority low H <y>\npriority low H <z>\n"))
	_ = core.WriteDirectives(os.Stdout, core.Combine(true, a, b))
	// Output:
	// priority high H <x>
	// priority low H <z>
}

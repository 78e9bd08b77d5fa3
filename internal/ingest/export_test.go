package ingest

import (
	"fmt"
	"io"

	"repro/internal/consultant"
)

// WriteLiveState renders everything the live search has decided so far,
// for the external test package: the counters, then every pair ever
// queued, in creation order, as "key priority state". Pruned pairs —
// which the graph records and the engine's first search loop never
// stored — are left out, so testdata/diagnosis.golden reads the same
// from either.
func WriteLiveState(w io.Writer, e *Engine) {
	fmt.Fprintf(w, "%d %d %d\n", e.Steps(), e.TrueCount(), e.WatchSteps())
	for _, n := range e.search.SHG().Nodes()[1:] {
		if n.State != consultant.StatePruned {
			fmt.Fprintf(w, "%s %v %v\n", n.Key(), n.Priority, n.State)
		}
	}
}

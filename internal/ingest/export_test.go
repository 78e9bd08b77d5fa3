package ingest

import (
	"fmt"
	"io"

	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/resource"
)

// WithGuide returns opts carrying g, its Directives compiled, as the
// session manager hands NewEngine a cached set's compile, for the
// external test package.
func WithGuide(opts EngineOptions, g *core.Guide) EngineOptions {
	opts.guide = g
	return opts
}

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

// HighPairs returns the High pairs steering e's search and the space
// they were bound in, for the external test package; ok is false while
// e has bound no directives to the space as it is.
func HighPairs(e *Engine) (high []consultant.HF, space *resource.Space, ok bool) {
	return e.guid.HighPairs, e.exec.Space, e.bound != nil && e.grownAt == e.exec.Space.Size()
}

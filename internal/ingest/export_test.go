package ingest

import (
	"fmt"
	"io"
	"sort"
)

// WriteLiveState renders everything the live search has decided so far,
// for the external test package: the counters, then every pair ever
// queued, in creation order, as "key priority state". A pair that could
// not be measured reads "false", as the batch path records it.
func WriteLiveState(w io.Writer, e *Engine) {
	fmt.Fprintf(w, "%d %d %d\n", e.Steps(), e.TrueCount(), e.WatchSteps())
	pairs := make([]*pairNode, 0, len(e.nodes))
	for _, n := range e.nodes {
		pairs = append(pairs, n)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].seq < pairs[j].seq })
	for _, n := range pairs {
		state := n.state
		if state == "error" {
			state = "false"
		}
		fmt.Fprintf(w, "%s %v %s\n", n.key, n.prio, state)
	}
}

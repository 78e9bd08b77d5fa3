//go:build race

package repro

// raceBuild reports whether the race detector is on; its instrumentation
// allocates, so allocation counts are pinned only without it.
const raceBuild = true

package ingest_test

import (
	"testing"

	"repro/internal/ingest"
)

// BenchmarkEngineFeed is one whole stream through Engine.Feed per
// iteration — the feed loop of the benchmark's stream workload, steered
// by harvested directives — so an op is what pcd spends between a
// stream's start and its end marker. steps and samples are per stream.
func BenchmarkEngineFeed(b *testing.B) {
	for _, appName := range []string{"mw", "pipeline"} {
		b.Run(appName, func(b *testing.B) {
			l := newFeedLoop(b, appName)
			var eng *ingest.Engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng = l.engine(l.harvested)
				l.feed(b, eng, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Steps()), "steps")
			b.ReportMetric(float64(eng.Samples()), "samples")
		})
	}
}

// BenchmarkEngineFinalize is the other half of a stream: the batch
// re-evaluation of the complete aggregate that produces the record.
func BenchmarkEngineFinalize(b *testing.B) {
	l := newFeedLoop(b, "mw")
	eng := l.engine(l.harvested)
	l.feed(b, eng, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Finalize(loopMaxTime); err != nil {
			b.Fatal(err)
		}
	}
}

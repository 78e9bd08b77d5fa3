package ingest_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ingest"
	"repro/internal/server"
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

// benchBatch is the first full batch of the mw feed loop: 64 samples,
// about 10 KB on the wire.
func benchBatch(b *testing.B) *ingest.SamplesRequest {
	b.Helper()
	return &ingest.SamplesRequest{App: "mw", RunID: "bench", Seq: 1, Samples: collectSamples(b, "mw", loopSeed, loopMaxTime)[:64]}
}

var benchSink any

// BenchmarkSamplesEncode prices one batch's encoding in the client, the
// direct codec against the reflective path it replaced.
func BenchmarkSamplesEncode(b *testing.B) {
	req := benchBatch(b)
	for _, enc := range []struct {
		name   string
		encode func(*ingest.SamplesRequest) ([]byte, error)
	}{
		{"direct", func(req *ingest.SamplesRequest) ([]byte, error) { return server.MarshalCompact(req) }},
		{"stdlib", func(req *ingest.SamplesRequest) ([]byte, error) { return json.Marshal(req) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			body, _ := enc.encode(req)
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				body, err := enc.encode(req)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = body
			}
		})
	}
}

// BenchmarkSamplesDecode prices the same body's decoding in the server:
// the strict decoder against the stream decoder handleIngestSamples ran
// over the request body.
func BenchmarkSamplesDecode(b *testing.B) {
	body, err := json.Marshal(benchBatch(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte, *ingest.SamplesRequest) bool
	}{
		{"direct", ingest.SamplesRequestShape.Parse},
		{"stdlib", func(data []byte, req *ingest.SamplesRequest) bool {
			return json.NewDecoder(bytes.NewReader(data)).Decode(req) == nil
		}},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				req := &ingest.SamplesRequest{}
				if !dec.decode(body, req) || len(req.Samples) != 64 {
					b.Fatal(len(req.Samples))
				}
				benchSink = req
			}
		})
	}
}
